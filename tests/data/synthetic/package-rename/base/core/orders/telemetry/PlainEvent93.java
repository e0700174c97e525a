package core.orders.telemetry;

public class PlainEvent93 {
    private int total;

    public int pushParcel39(int x) {
        int d = x + 28;
        int q = d * 43;
        int e = q + 13;
        total = total + e;
        return total;
    }

    public int link1(int x) {
        QuickBatch59 d = new QuickBatch59();
        return d.applyBatch13(x);
    }
}
