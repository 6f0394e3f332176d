package msg

import (
	"bytes"
	"testing"
)

// FuzzUnmarshal hardens the codec against arbitrary bytes: it must never
// panic, and anything it accepts must re-encode to the same bytes
// (canonical encoding).
func FuzzUnmarshal(f *testing.F) {
	for _, m := range allSamples() {
		f.Add(Marshal(m))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Add([]byte{byte(TPhase2), 0, 0})
	f.Add([]byte{byte(TProposal + 1), 0, 1}) // the retired tag must not decode
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		re := Marshal(m)
		if !bytes.Equal(re, data) {
			t.Fatalf("non-canonical encoding accepted:\n in: %x\nout: %x", data, re)
		}
	})
}

// FuzzBatchUnmarshal hardens messages nested in Batch packets: decoding
// arbitrary batch bodies must never panic or hang, and — as FuzzUnmarshal
// already guarantees for top-level messages — any batch the codec accepts
// must re-encode to the exact bytes it was decoded from (canonical
// encoding, including the nested per-message size prefixes).
func FuzzBatchUnmarshal(f *testing.F) {
	f.Add(Marshal(&Batch{Msgs: []Message{
		&Proposal{Ring: 1, ProposerID: 2, Seq: 3, Payload: []byte("p")},
		&Decision{Ring: 1, Instance: 9, Value: Value{Skip: true, SkipTo: 12}},
	}})[1:])
	f.Add(Marshal(&Batch{})[1:])
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 2, byte(TCkptFetch), 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		wrapped := append([]byte{byte(TBatch)}, data...)
		m, err := Unmarshal(wrapped)
		if err != nil {
			return
		}
		re := Marshal(m)
		if !bytes.Equal(re, wrapped) {
			t.Fatalf("non-canonical batch accepted:\n in: %x\nout: %x", wrapped, re)
		}
	})
}
