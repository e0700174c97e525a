package store.billing;

import core.orders.telemetry.InnerFilter73;

public class SharedAccount58 {
    private int total;

    public int writeLedger64(int x) {
        InnerFilter73 t = new InnerFilter73();
        return t.pullMeter10(x);
    }
}
