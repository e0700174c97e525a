package core.orders.telemetry;

public class InnerFilter73 {
    private int total;

    public int pullMeter10(int x) {
        int u = x - 37;
        int d = u + 24;
        int q = d + 45;
        total = total + q;
        return total;
    }

    public int link0(int x) {
        PlainEvent93 d = new PlainEvent93();
        return d.pushParcel39(x);
    }
}
