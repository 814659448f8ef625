package spectral

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"nektar/internal/machine"
	"nektar/internal/mpi"
	"nektar/internal/simnet"
)

// fill gives a deterministic dense test matrix.
func fillMatrix(rows, cols int) []complex128 {
	m := make([]complex128, rows*cols)
	for i := range m {
		h := mix64(uint64(i) + 0x1234)
		m[i] = complex(phase01(h), phase01(mix64(h)))
	}
	return m
}

func TestTransposerSerial(t *testing.T) {
	const rows, cols = 8, 16
	tr, err := NewTransposer(rows, cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := NewTransposer(cols, rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := fillMatrix(rows, cols)
	out := make([]complex128, cols*rows)
	tr.Transpose(in, out)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if out[j*rows+i] != in[i*cols+j] {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	rt := make([]complex128, rows*cols)
	back.Transpose(out, rt)
	for i := range in {
		if rt[i] != in[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestTransposerRejectsBadDecomposition(t *testing.T) {
	if _, err := NewTransposer(0, 4, nil); err == nil {
		t.Fatal("want error for zero rows")
	}
	_, _, err := simnet.Run(4, machine.Muses().Net, func(n *simnet.Node) {
		if _, err := NewTransposer(6, 8, mpi.World(n)); err == nil {
			panic("want error: 6 rows do not decompose over 4 ranks")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTransposerParallelMatchesSerial checks the distributed exchange
// assembles exactly the serial transpose, slab by slab.
func TestTransposerParallelMatchesSerial(t *testing.T) {
	const rows, cols, p = 8, 16, 4
	in := fillMatrix(rows, cols)
	ser, err := NewTransposer(rows, cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, cols*rows)
	ser.Transpose(in, want)

	got := make([][]complex128, p)
	_, _, err = simnet.Run(p, machine.Muses().Net, func(n *simnet.Node) {
		comm := mpi.World(n)
		tr, err := NewTransposer(rows, cols, comm)
		if err != nil {
			panic(err)
		}
		rloc, cloc := rows/p, cols/p
		slab := in[n.Rank*rloc*cols : (n.Rank+1)*rloc*cols]
		out := make([]complex128, cloc*rows)
		tr.Transpose(slab, out)
		got[n.Rank] = out
	})
	if err != nil {
		t.Fatal(err)
	}
	cloc := cols / p
	for r := 0; r < p; r++ {
		for i, v := range got[r] {
			if want[r*cloc*rows+i] != v {
				t.Fatalf("rank %d slab mismatch at %d", r, i)
			}
		}
	}
}

func hashSlab(s []complex128) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range s {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(real(v)))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(imag(v)))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTransposerP64Models drives the transposer at P=64 under the PMS
// and Tanaka interconnect models: a few distributed transpose round
// trips must leave every rank's slab bit-identical to the same trips
// through the one-rank transposer. This is the capacity configuration
// the spectral solvers rely on for the paper-scale sweeps.
func TestTransposerP64Models(t *testing.T) {
	const n, p, trips = 64, 64, 3
	full := fillMatrix(n, n)
	ser, err := NewTransposer(n, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, tmp := append([]complex128(nil), full...), make([]complex128, n*n)
	for k := 0; k < trips; k++ {
		ser.Transpose(ref, tmp)
		ref, tmp = tmp, ref
	}
	rloc := n / p
	models := []struct {
		name string
		mach *machine.Machine
	}{
		{"pms", machine.PMS()},
		{"tanaka", machine.Tanaka()},
	}
	for _, mc := range models {
		hashes := make([]string, p)
		_, _, err := simnet.Run(p, mc.mach.Net, func(nd *simnet.Node) {
			comm := mpi.World(nd)
			fwd, err := NewTransposer(n, n, comm)
			if err != nil {
				panic(err)
			}
			slab := append([]complex128(nil), full[nd.Rank*rloc*n:(nd.Rank+1)*rloc*n]...)
			tmp := make([]complex128, rloc*n)
			for k := 0; k < trips; k++ {
				fwd.Transpose(slab, tmp)
				slab, tmp = tmp, slab
			}
			hashes[nd.Rank] = hashSlab(slab)
		})
		if err != nil {
			t.Fatalf("%s: %v", mc.name, err)
		}
		for r := range hashes {
			if want := hashSlab(ref[r*rloc*n : (r+1)*rloc*n]); hashes[r] != want {
				t.Fatalf("%s: rank %d slab differs from the one-rank transposer", mc.name, r)
			}
		}
	}
}
