package core.orders;

public class QuickCipher70 {
    private int total;

    public int applyBatch13(int x) {
        int u = x - 20;
        int w = u * 33;
        int d = w * 27;
        total = total + d;
        return total;
    }

    public int step1(int x) {
        NativeLedger22 d = new NativeLedger22();
        int y = d.updateItem11(x);
        return y + total;
    }

    public int drive() {
        CachedOrder25 s = new CachedOrder25();
        int r = s.flushUnit39(3);
        return r;
    }
}
