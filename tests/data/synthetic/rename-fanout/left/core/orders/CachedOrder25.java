package core.orders;

public class CachedOrder25 {
    private int total;

    public int buildEvent41(int x) {
        int c = x * 18;
        int b = c + 45;
        total = total + b;
        return total;
    }

    public int processPacket31(int x) {
        int a = x - 47;
        int c = a * 45;
        total = total + c;
        return total;
    }

    public int emitVector80(int x) {
        int d = x + 41;
        int e = d + 24;
        total = total + e;
        return total;
    }

    public int loadLease73(int x) {
        int u = x * 23;
        int v = u - 40;
        total = total + v;
        return total;
    }

    public int queryCache49(int x) {
        int b = x * 34;
        int e = b + 40;
        total = total + e;
        return total;
    }

    public int mergeGraph64(int x) {
        int k = x * 14;
        int v = k * 28;
        total = total + v;
        return total;
    }

    public int emitHolder60(int x) {
        int q = x - 32;
        int k = q + 3;
        total = total + k;
        return total;
    }

    public int writeVector21(int x) {
        int e = x + 12;
        int b = e - 35;
        total = total + b;
        return total;
    }

    public int updateQueue25(int x) {
        int u = x + 29;
        int z = u + 32;
        total = total + z;
        return total;
    }

    public int tallyLease84(int x) {
        int n = x + 3;
        int a = n - 11;
        total = total + a;
        return total;
    }

    public int readZone85(int x) {
        int a = x * 13;
        int d = a * 39;
        total = total + d;
        return total;
    }

    public int emitGraph39(int x) {
        int n = x + 42;
        int u = n * 35;
        total = total + u;
        return total;
    }

    public int processAnchor95(int x) {
        int b = x + 30;
        int z = b + 19;
        total = total + z;
        return total;
    }

    public int readKernel48(int x) {
        int q = x - 24;
        int k = q + 36;
        total = total + k;
        return total;
    }

    public int probeFrame13(int x) {
        int e = x - 28;
        int n = e + 18;
        total = total + n;
        return total;
    }

    public int pushGraph23(int x) {
        int c = x - 43;
        int w = c * 20;
        total = total + w;
        return total;
    }
}
