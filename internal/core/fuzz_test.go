package core

import (
	"bytes"
	"testing"
)

// FuzzSnapshotCodec checks the binary snapshot decoder never panics
// and that any snapshot it accepts is a fixed point: re-encoding
// reproduces the input byte for byte. The seed corpus (testdata)
// carries real encoded snapshots from every workload family plus
// header-only and garbage prefixes.
func FuzzSnapshotCodec(f *testing.F) {
	f.Add(EncodeSnapshot(testSnapshot()))
	f.Add(EncodeSnapshot(Snapshot{Workload: WorkloadGLM, Spec: "svm", Dataset: "reuters", X: []float64{1, 2}}))
	f.Add(EncodeSnapshot(Snapshot{}))
	f.Add([]byte(snapMagic))
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		// Accepted inputs are exactly what the encoder emits for the
		// decoded value: one canonical encoding per snapshot.
		if re := EncodeSnapshot(s); !bytes.Equal(re, data) {
			t.Fatalf("accepted input is not canonical:\n in: %x\nout: %x", data, re)
		}
	})
}
