package core.orders;

public class OpenMeter10 {
    private int total;

    public int applyHolder38(int x) {
        int u = x - 48;
        int n = u + 32;
        int k = n + 21;
        total = total + k;
        return total;
    }

    public int step4(int x) {
        PlainParcel39 d = new PlainParcel39();
        int y = d.pushFrame80(x);
        return y + total;
    }
}
