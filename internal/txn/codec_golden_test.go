package txn

import (
	"encoding/hex"
	"testing"
)

// TestCodecGolden pins the transaction and result byte formats against
// hex captured before the codec moved onto msg.Writer.
func TestCodecGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		got  []byte
		want string
	}{
		{"cas", Txn{Client: 1, Seq: 2, Kind: KindCAS, Parts: []uint16{0, 3},
			Ops: []KeyOp{{Part: 0, Key: "a", Expect: nil, Value: []byte("v")}, {Part: 3, Key: "b", Expect: []byte{}, Value: []byte("w")}}}.Encode(), "00000000000000010000000000000002030002000000030000000200000001610001000000017600030001620100000000010000000177"},
		{"put", Txn{Client: 1, Seq: 3, Kind: KindPut, Parts: []uint16{1},
			Ops: []KeyOp{{Part: 1, Key: "k", Value: []byte("x")}}}.Encode(), "00000000000000010000000000000003020001000100000001000100016b0000000178"},
		{"transfer", Txn{Client: 1, Seq: 4, Kind: KindTransfer, Parts: []uint16{0},
			Ops: []KeyOp{{Part: 0, Key: "acct", Delta: -5}}}.Encode(), "000000000000000100000000000000040400010000000000010000000461636374fffffffffffffffb"},
		{"result", EncodeResult(Result{Outcome: OutcomeFailed, Reads: []KeyRead{
			{Key: "a", Found: true, Value: []byte("v")}, {Key: "b"}}}), "020000000200016101000000017600016200"},
		{"balance", EncodeBalance(-2), "fffffffffffffffe"},
	} {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
