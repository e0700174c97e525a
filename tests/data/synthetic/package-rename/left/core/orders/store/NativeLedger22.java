package core.orders.store;

public class NativeLedger22 {
    private int total;

    public int syncEngine50(int x) {
        int w = x * 23;
        int e = w * 47;
        int b = e * 29;
        total = total + b;
        return total;
    }

    public int link2(int x) {
        PlainEvent93 d = new PlainEvent93();
        return d.pushParcel39(x);
    }
}
