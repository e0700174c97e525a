package core.orders;

public class CachedOrder25 {
    private int total;

    public int flushLease23(int x) {
        int c = x * 18;
        int b = c + 45;
        total = total + b;
        return total;
    }

    public int applyAnchor81(int x) {
        int a = x - 47;
        int c = a * 45;
        total = total + c;
        return total;
    }

    public int applyPacket79(int x) {
        int d = x + 41;
        int e = d + 24;
        total = total + e;
        return total;
    }

    public int processBucket87(int x) {
        int u = x * 23;
        int v = u - 40;
        total = total + v;
        return total;
    }

    public int probeMapper96(int x) {
        int b = x * 34;
        int e = b + 40;
        total = total + e;
        return total;
    }

    public int updateWindow36(int x) {
        int k = x * 14;
        int v = k * 28;
        total = total + v;
        return total;
    }

    public int readMapper66(int x) {
        int q = x - 32;
        int k = q + 3;
        total = total + k;
        return total;
    }

    public int applyWindow97(int x) {
        int e = x + 12;
        int b = e - 35;
        total = total + b;
        return total;
    }

    public int queryCipher70(int x) {
        int u = x + 29;
        int z = u + 32;
        total = total + z;
        return total;
    }

    public int flushDriver47(int x) {
        int n = x + 3;
        int a = n - 11;
        total = total + a;
        return total;
    }

    public int applyCipher44(int x) {
        int a = x * 13;
        int d = a * 39;
        total = total + d;
        return total;
    }

    public int updateEngine33(int x) {
        int n = x + 42;
        int u = n * 35;
        total = total + u;
        return total;
    }

    public int mergeBatch12(int x) {
        int b = x + 30;
        int z = b + 19;
        total = total + z;
        return total;
    }

    public int computeFrame13(int x) {
        int q = x - 24;
        int k = q + 36;
        total = total + k;
        return total;
    }

    public int queryJoint39(int x) {
        int e = x - 28;
        int n = e + 18;
        total = total + n;
        return total;
    }

    public int fetchBucket13(int x) {
        int c = x - 43;
        int w = c * 20;
        total = total + w;
        return total;
    }
}
