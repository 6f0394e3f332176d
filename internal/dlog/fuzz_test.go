package dlog

import (
	"bytes"
	"testing"
)

// FuzzOpDecode checks that the op and result codecs are canonical: any
// input decodeOp or decodeResult accepts re-encodes to the identical
// bytes, and no input makes either panic.
func FuzzOpDecode(f *testing.F) {
	f.Add(op{kind: opAppend, log: 2, data: []byte("data")}.encode())
	f.Add(op{kind: opMultiAppend, logs: []LogID{0, 1}, data: []byte("d")}.encode())
	f.Add(op{kind: opTrim, log: 1, pos: 42}.encode())
	f.Add(result{status: statusOK, positions: []logPos{{0, 7}, {1, 8}}, data: []byte("r")}.encode())
	f.Add([]byte{})
	f.Add([]byte{byte(opRead), 0, 0, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, b []byte) {
		if o, err := decodeOp(b); err == nil {
			if re := o.encode(); !bytes.Equal(re, b) {
				t.Fatalf("accepted op is not canonical:\n in %x\nout %x", b, re)
			}
		}
		if r, err := decodeResult(b); err == nil {
			if re := r.encode(); !bytes.Equal(re, b) {
				t.Fatalf("accepted result is not canonical:\n in %x\nout %x", b, re)
			}
		}
	})
}

// FuzzSnapshotRestore checks that Restore is all or nothing: on any input
// it either installs exactly that snapshot (Snapshot then returns the
// input byte for byte) or installs nothing (Snapshot returns the state
// before). smr.Replica.InstallCheckpoint relies on this to refuse a
// corrupt snapshot without an error from Restore.
func FuzzSnapshotRestore(f *testing.F) {
	sm := testSM(false)
	exec(f, sm, op{kind: opAppend, log: 0, data: []byte("a")})
	exec(f, sm, op{kind: opMultiAppend, logs: []LogID{0, 1}, data: []byte("m")})
	exec(f, sm, op{kind: opTrim, log: 0, pos: 0})
	snap := sm.Snapshot()
	f.Add(snap)
	f.Add(snap[:len(snap)-3])
	f.Add(append(snap, 0))
	f.Add([]byte{})
	f.Add([]byte{0, 2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		sm := testSM(false)
		sm.Restore(snap)
		sm.Restore(b)
		got := sm.Snapshot()
		if !bytes.Equal(got, b) && !bytes.Equal(got, snap) {
			t.Fatalf("Restore installed part of its input:\n in %x\nout %x", b, got)
		}
	})
}
