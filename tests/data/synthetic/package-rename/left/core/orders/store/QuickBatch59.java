package core.orders.store;

public class QuickBatch59 {
    private int total;

    public int applyBatch13(int x) {
        int u = x - 20;
        int w = u * 33;
        int d = w * 27;
        total = total + d;
        return total;
    }

    public int link3(int x) {
        InnerFilter73 d = new InnerFilter73();
        return d.pullMeter10(x);
    }
}
