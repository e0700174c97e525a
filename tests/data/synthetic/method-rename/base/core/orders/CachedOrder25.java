package core.orders;

public class CachedOrder25 {
    private int total;

    public int syncEngine50(int x) {
        int w = x * 23;
        int e = w * 47;
        int b = e * 29;
        total = total + b;
        return total;
    }

    public int step0(int x) {
        QuickCipher70 d = new QuickCipher70();
        int y = d.applyBatch13(x);
        return y + total;
    }

    public int flushUnit39(int x) {
        int d = x * 37;
        int a = d + 27;
        int z = a * 24;
        total = total + z;
        return total;
    }
}
