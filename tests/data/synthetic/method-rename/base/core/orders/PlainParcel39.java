package core.orders;

public class PlainParcel39 {
    private int total;

    public int pushFrame80(int x) {
        int z = x * 27;
        int v = z * 12;
        int w = v + 34;
        total = total + w;
        return total;
    }

    public int step5(int x) {
        CachedOrder25 d = new CachedOrder25();
        int y = d.syncEngine50(x);
        return y + total;
    }
}
