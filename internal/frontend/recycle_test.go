package frontend_test

import (
	"reflect"
	"testing"

	"repro/internal/branch"
	"repro/internal/checkpoint"
	"repro/internal/frontend"
	"repro/internal/trace"
)

const recycleMaxLen = 64

// nextWP advances fe to the next record carrying an emulated wrong
// path; ok is false at end of stream.
func nextWP(fe *frontend.Frontend) (trace.DynInst, bool) {
	for {
		di, ok := fe.Next()
		if !ok || di.WP != nil {
			return di, ok
		}
	}
}

// TestReleasedPathIsReused: a path handed back through ReleaseWP is the
// buffer the next emulation fills.
func TestReleasedPathIsReused(t *testing.T) {
	fe := frontend.New(newCPU(t), frontend.WithWrongPathEmulation(branch.DefaultConfig(), recycleMaxLen))
	first, ok := nextWP(fe)
	if !ok {
		t.Fatal("no wrong path emulated")
	}
	if cap(first.WP) != recycleMaxLen {
		t.Fatalf("path buffer capacity %d, want %d", cap(first.WP), recycleMaxLen)
	}
	buf := &first.WP[0]
	fe.ReleaseWP(first.WP)
	second, ok := nextWP(fe)
	if !ok {
		t.Fatal("only one wrong path emulated")
	}
	if &second.WP[0] != buf {
		t.Error("released buffer was not reused for the next path")
	}
}

// TestRestoredPathNeverReused: a path restored from a snapshot is an
// exact-length allocation, not one of the frontend's buffers; released,
// it must be dropped rather than filled by a later emulation.
func TestRestoredPathNeverReused(t *testing.T) {
	fe := frontend.New(newCPU(t), frontend.WithWrongPathEmulation(branch.DefaultConfig(), recycleMaxLen))
	br, ok := nextWP(fe)
	if !ok || len(br.WP) < 2 {
		t.Fatal("no multi-record wrong path emulated")
	}
	br.WP = br.WP[:2]
	w := checkpoint.NewWriter()
	br.SaveState(w)
	r, err := checkpoint.Open(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	var restored trace.DynInst
	if err := restored.RestoreState(r); err != nil {
		t.Fatal(err)
	}
	if cap(restored.WP) >= recycleMaxLen {
		t.Fatalf("restored path has capacity %d, want an exact-length allocation", cap(restored.WP))
	}
	want := append([]trace.DynInst(nil), restored.WP...)
	buf := &restored.WP[0]
	// Released last, the restored path would be the first buffer taken.
	fe.ReleaseWP(br.WP)
	fe.ReleaseWP(restored.WP)

	paths := 0
	for {
		di, ok := nextWP(fe)
		if !ok {
			break
		}
		paths++
		if &di.WP[0] == buf {
			t.Fatal("restored path reused for emulation")
		}
		fe.ReleaseWP(di.WP)
	}
	if paths == 0 {
		t.Fatal("no further wrong paths emulated")
	}
	if !reflect.DeepEqual(restored.WP, want) {
		t.Error("restored path overwritten after release")
	}
}
