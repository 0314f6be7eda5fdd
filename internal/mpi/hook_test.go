package mpi

import (
	"strings"
	"testing"
)

func TestCollTypeStringsAndRootedness(t *testing.T) {
	rooted := map[CollType]bool{
		CollBcast: true, CollReduce: true, CollScatter: true, CollGather: true,
		CollScatterv: true, CollGatherv: true,
	}
	for ct := CollType(0); ct < NumCollTypes; ct++ {
		s := ct.String()
		if !strings.HasPrefix(s, "MPI_") {
			t.Errorf("type %d renders as %q", ct, s)
		}
		if ct.Rooted() != rooted[ct] {
			t.Errorf("%v rooted = %v, want %v", ct, ct.Rooted(), rooted[ct])
		}
	}
	if !strings.Contains(CollType(99).String(), "99") {
		t.Error("out-of-range type should render its value")
	}
}

func TestErrClassStrings(t *testing.T) {
	cases := map[ErrClass]string{
		ErrNone: "MPI_SUCCESS", ErrCount: "MPI_ERR_COUNT", ErrType: "MPI_ERR_TYPE",
		ErrOp: "MPI_ERR_OP", ErrRoot: "MPI_ERR_ROOT", ErrComm: "MPI_ERR_COMM",
		ErrRank: "MPI_ERR_RANK", ErrTag: "MPI_ERR_TAG", ErrTruncate: "MPI_ERR_TRUNCATE",
		ErrBuffer: "MPI_ERR_BUFFER", ErrInternal: "MPI_ERR_INTERN",
	}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("%d = %q, want %q", c, c.String(), want)
		}
	}
	if !strings.Contains(ErrClass(77).String(), "77") {
		t.Error("unknown class should render its value")
	}
}

func TestErrorTypeMessages(t *testing.T) {
	e := MPIError{Class: ErrCount, Rank: 3, Op: "MPI_Bcast", Detail: "negative count -1"}
	if !strings.Contains(e.Error(), "rank 3") || !strings.Contains(e.Error(), "MPI_ERR_COUNT") {
		t.Errorf("MPIError message: %s", e.Error())
	}
	s := SegFault{Op: "load", Offset: 8, Length: 16, Bound: 8}
	if !strings.Contains(s.Error(), "segmentation fault") {
		t.Errorf("SegFault message: %s", s.Error())
	}
	a := AppError{Rank: 1, Message: "lost atoms"}
	if !strings.Contains(a.Error(), "lost atoms") {
		t.Errorf("AppError message: %s", a.Error())
	}
	k := Killed{Reason: "deadlock"}
	if !strings.Contains(k.Error(), "deadlock") {
		t.Errorf("Killed message: %s", k.Error())
	}
}

func TestDatatypeProperties(t *testing.T) {
	sizes := map[Datatype]int{Byte: 1, Int32: 4, Int64: 8, Float32: 4, Float64: 8, Complex128: 16}
	for dt, want := range sizes {
		if !dt.Valid() {
			t.Errorf("%v should be valid", dt)
		}
		if dt.Size() != want {
			t.Errorf("%v size = %d, want %d", dt, dt.Size(), want)
		}
		if !strings.HasPrefix(dt.String(), "MPI_") {
			t.Errorf("%v renders as %q", dt, dt.String())
		}
	}
	if DatatypeNull.Valid() {
		t.Error("null datatype should be invalid")
	}
	if Datatype(123).Valid() || Datatype(123).String() != "MPI_DATATYPE_INVALID" {
		t.Error("kind-broken handle should be invalid")
	}
}

func TestOpProperties(t *testing.T) {
	for _, op := range []Op{OpSum, OpProd, OpMax, OpMin, OpLand, OpLor, OpBand, OpBor} {
		if !op.Valid() {
			t.Errorf("%v should be valid", op)
		}
		if !strings.HasPrefix(op.String(), "MPI_") {
			t.Errorf("%v renders as %q", op, op.String())
		}
	}
	if OpNull.Valid() {
		t.Error("null op should be invalid")
	}
	if Op(5).Valid() {
		t.Error("kind-broken op should be invalid")
	}
}

func TestCombineBitwiseOps(t *testing.T) {
	a := FromInt64s([]int64{0b1100})
	b := FromInt64s([]int64{0b1010})
	combine(OpBand, Int64, a.Bytes(), b.Bytes(), 1)
	if a.Int64(0) != 0b1000 {
		t.Errorf("BAND = %b", a.Int64(0))
	}
	a2 := FromInt64s([]int64{0b1100})
	combine(OpBor, Int64, a2.Bytes(), b.Bytes(), 1)
	if a2.Int64(0) != 0b1110 {
		t.Errorf("BOR = %b", a2.Int64(0))
	}
}

func TestCombineAllTypes(t *testing.T) {
	// float32
	f32a := FromInt32s(nil)
	_ = f32a
	a := NewBuffer(4)
	storeFloat32(a.Bytes(), 1.5)
	b := NewBuffer(4)
	storeFloat32(b.Bytes(), 2.5)
	combine(OpSum, Float32, a.Bytes(), b.Bytes(), 1)
	if loadFloat32(a.Bytes()) != 4.0 {
		t.Errorf("float32 sum = %v", loadFloat32(a.Bytes()))
	}
	// byte
	ab := []byte{200}
	bb := []byte{100}
	combine(OpMax, Byte, ab, bb, 1)
	if ab[0] != 200 {
		t.Errorf("byte max = %d", ab[0])
	}
	// complex: sum and prod
	ca := FromComplex128s([]complex128{complex(1, 2)})
	cb := FromComplex128s([]complex128{complex(3, -1)})
	combine(OpSum, Complex128, ca.Bytes(), cb.Bytes(), 1)
	if ca.Complex128(0) != complex(4, 1) {
		t.Errorf("complex sum = %v", ca.Complex128(0))
	}
	cp := FromComplex128s([]complex128{complex(1, 2)})
	combine(OpProd, Complex128, cp.Bytes(), cb.Bytes(), 1)
	if cp.Complex128(0) != complex(1*3-2*(-1), 1*(-1)+2*3) {
		t.Errorf("complex prod = %v", cp.Complex128(0))
	}
	// int32 logical
	ia := FromInt32s([]int32{5})
	ib := FromInt32s([]int32{0})
	combine(OpLand, Int32, ia.Bytes(), ib.Bytes(), 1)
	if ia.Int32(0) != 0 {
		t.Errorf("int32 LAND = %d", ia.Int32(0))
	}
}

func TestP2PKindString(t *testing.T) {
	if P2PSend.String() != "MPI_Send" || P2PRecv.String() != "MPI_Recv" {
		t.Error("p2p kind names wrong")
	}
}

func TestInternalTagNamespaceDisjointFromUserTags(t *testing.T) {
	if internalTag(0, 0) < int64(maxUserTag) {
		t.Error("internal tags must not collide with user tags")
	}
	if internalTag(5, 3) == internalTag(5, 4) || internalTag(5, 0) == internalTag(6, 0) {
		t.Error("internal tags must be unique per (seq, round)")
	}
}
