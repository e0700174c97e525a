package core.orders;

public class NativeLedger22 {
    private int total;

    public int updateItem11(int x) {
        int v = x + 49;
        int a = v - 28;
        int q = a * 13;
        total = total + q;
        return total;
    }

    public int step2(int x) {
        QuickBatch59 d = new QuickBatch59();
        int y = d.processLedger64(x);
        return y + total;
    }
}
