package dlog

import (
	"encoding/hex"
	"testing"
)

// TestCodecGolden pins the byte formats of dLog's op, result and snapshot
// encoders against hex captured before they moved onto msg.Writer.
func TestCodecGolden(t *testing.T) {
	sm := NewSM(SMConfig{SyncWrites: true})
	sm.logs[3] = &logState{base: 5, entries: [][]byte{[]byte("x"), {}}}
	sm.logs[1] = &logState{base: 0, entries: [][]byte{[]byte("hello")}}
	sm.logs[2] = &logState{base: 9}

	for _, tc := range []struct {
		name string
		got  []byte
		want string
	}{
		{"op append", op{kind: opAppend, log: 2, data: []byte("data")}.encode(), "010002000000000000000000000000000464617461"},
		{"op multi-append", op{kind: opMultiAppend, logs: []LogID{0, 1}, data: []byte("d")}.encode(), "02000000020000000100000000000000000000000164"},
		{"op read", op{kind: opRead, log: 1, pos: 42}.encode(), "0300010000000000000000002a00000000"},
		{"result", result{status: statusOK, positions: []logPos{{0, 7}, {1, 8}}, data: []byte("r")}.encode(), "01000200000000000000000007000100000000000000080000000172"},
		{"snapshot", sm.Snapshot(), "000300010000000000000000000000010000000568656c6c6f00020000000000000009000000000003000000000000000500000002000000017800000000"},
	} {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
