package core.orders;

public class SharedMeter10 {
    private int total;

    public int processGraph26() {
        CachedOrder25 h = new CachedOrder25();
        int s = 0;
        s = s + h.queryCipher70(8);
        s = s + h.updateWindow36(4);
        s = s + h.computeFrame13(9);
        s = s + h.processBucket87(1);
        s = s + h.applyCipher44(7);
        s = s + h.flushLease23(6);
        s = s + h.mergeBatch12(7);
        s = s + h.applyPacket79(1);
        s = s + h.applyWindow97(5);
        s = s + h.fetchBucket13(3);
        s = s + h.readMapper66(4);
        s = s + h.queryJoint39(1);
        s = s + h.probeMapper96(5);
        s = s + h.flushDriver47(2);
        s = s + h.applyAnchor81(2);
        s = s + h.updateEngine33(5);
        return s;
    }
}
