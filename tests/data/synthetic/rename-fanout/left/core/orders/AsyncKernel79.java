package core.orders;

public class AsyncKernel79 {
    private int total;

    public int call0() {
        CachedOrder25 h = new CachedOrder25();
        int s = 0;
        s = s + h.updateQueue25(8);
        s = s + h.mergeGraph64(4);
        s = s + h.readKernel48(9);
        s = s + h.loadLease73(1);
        s = s + h.readZone85(7);
        s = s + h.buildEvent41(6);
        s = s + h.processAnchor95(7);
        s = s + h.emitVector80(1);
        s = s + h.writeVector21(5);
        s = s + h.pushGraph23(3);
        s = s + h.emitHolder60(4);
        s = s + h.probeFrame13(1);
        s = s + h.queryCache49(5);
        s = s + h.tallyLease84(2);
        s = s + h.processPacket31(2);
        s = s + h.emitGraph39(5);
        return s;
    }
}
