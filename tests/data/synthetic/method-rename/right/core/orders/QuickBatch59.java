package core.orders;

public class QuickBatch59 {
    private int total;

    public int processLedger64(int x) {
        int k = x + 30;
        int u = k * 34;
        int z = u + 12;
        total = total + z;
        return total;
    }

    public int step3(int x) {
        OpenMeter10 d = new OpenMeter10();
        int y = d.applyHolder38(x);
        return y + total;
    }
}
