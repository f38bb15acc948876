package faults

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/bitstream"
	"repro/internal/device"
	"repro/internal/frames"
	"repro/internal/xhwif"
)

func testConfig(t *testing.T, seed int64) (*frames.Memory, []byte) {
	t.Helper()
	p := device.MustByName("XCV50")
	m := frames.New(p)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 400; i++ {
		m.SetBit(p.CLBBit(rng.Intn(p.Rows), rng.Intn(p.Cols), rng.Intn(device.CLBLocalBits)), true)
	}
	return m, bitstream.WriteFull(m)
}

func TestParseSpec(t *testing.T) {
	spec, err := Parse("nth=3,mode=truncate,seed=7,latency=2ms,first=1,prob=0.25")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Seed: 7, Nth: 3, First: 1, Prob: 0.25, Mode: ModeTruncate, Latency: 2 * time.Millisecond}
	if spec != want {
		t.Fatalf("parsed %+v, want %+v", spec, want)
	}
	if s, err := Parse(""); err != nil || s.Enabled() {
		t.Fatalf("empty spec: %+v, %v", s, err)
	}
	for _, bad := range []string{"nth", "mode=explode", "prob=2", "latency=-1ms,nth=1", "zz=1"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

func TestErrorModeIsDeterministic(t *testing.T) {
	_, bs := testConfig(t, 1)
	p := device.MustByName("XCV50")
	var gotA, gotB []bool
	for _, got := range []*[]bool{&gotA, &gotB} {
		in := Wrap(xhwif.NewBoard(p), Spec{Nth: 2, Seed: 5})
		for i := 0; i < 6; i++ {
			_, err := in.DownloadCtx(context.Background(), bs)
			*got = append(*got, err != nil)
			if err != nil && !errors.Is(err, ErrInjected) {
				t.Fatalf("download %d: %v is not ErrInjected", i, err)
			}
		}
	}
	want := []bool{false, true, false, true, false, true}
	for i := range want {
		if gotA[i] != want[i] || gotB[i] != want[i] {
			t.Fatalf("injection pattern %v / %v, want %v", gotA, gotB, want)
		}
	}
	in := Wrap(xhwif.NewBoard(p), Spec{Nth: 2, Seed: 5})
	for i := 0; i < 6; i++ {
		in.DownloadCtx(context.Background(), bs)
	}
	if attempts, injected := in.Counts(); attempts != 6 || injected != 3 {
		t.Fatalf("counts %d/%d, want 3/6", injected, attempts)
	}
}

func TestTruncateModeRollsBack(t *testing.T) {
	mem, bs := testConfig(t, 2)
	p := device.MustByName("XCV50")
	board := xhwif.NewBoard(p)
	if _, err := board.Download(bs); err != nil {
		t.Fatal(err)
	}
	mem2 := mem.Clone()
	mem2.SetBit(p.CLBBit(0, 0, 0), true)
	in := Wrap(board, Spec{First: 1, Mode: ModeTruncate, Seed: 3})
	if _, err := in.DownloadCtx(context.Background(), bitstream.WriteFull(mem2)); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if !board.Readback().Equal(mem) {
		t.Fatal("truncated download corrupted the device")
	}
}

func TestCorruptModeRejectedByCRC(t *testing.T) {
	mem, bs := testConfig(t, 3)
	p := device.MustByName("XCV50")
	board := xhwif.NewBoard(p)
	if _, err := board.Download(bs); err != nil {
		t.Fatal(err)
	}
	in := Wrap(board, Spec{First: 1, Mode: ModeCorrupt, Seed: 11})
	if _, err := in.DownloadCtx(context.Background(), bs); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if !board.Readback().Equal(mem) {
		t.Fatal("corrupted download changed the device behind a reported error")
	}
}

// TestRetryConvergesUnderFaults is the acceptance-criteria scenario: with a
// deterministic failure on download attempt k, the reliability layer
// retries with backoff and the final configuration memory is byte-identical
// to a fault-free run; with retries exhausted, the device keeps its exact
// pre-download state.
func TestRetryConvergesUnderFaults(t *testing.T) {
	mem, bs := testConfig(t, 4)
	p := device.MustByName("XCV50")

	// Fault-free reference run.
	ref := xhwif.NewBoard(p)
	if _, err := ref.Download(bs); err != nil {
		t.Fatal(err)
	}

	for _, mode := range []string{ModeError, ModeTruncate, ModeCorrupt} {
		board := xhwif.NewBoard(p)
		r := xhwif.NewReliable(Wrap(board, Spec{First: 2, Mode: mode, Seed: 9}), xhwif.RetryPolicy{
			MaxAttempts: 4,
			BaseBackoff: time.Nanosecond,
			MaxBackoff:  time.Nanosecond,
			Verify:      true,
		})
		ds, err := r.DownloadCtx(context.Background(), bs)
		if err != nil {
			t.Fatalf("mode=%s: %v", mode, err)
		}
		if ds.Attempts != 3 {
			t.Fatalf("mode=%s: succeeded on attempt %d, want 3", mode, ds.Attempts)
		}
		if !board.Readback().Equal(ref.Readback()) {
			t.Fatalf("mode=%s: faulted-then-retried run diverged from the fault-free run", mode)
		}
		if !board.Readback().Equal(mem) {
			t.Fatalf("mode=%s: final state differs from the written configuration", mode)
		}
	}

	// Exhausted retries: every attempt faulted, device untouched.
	board := xhwif.NewBoard(p)
	if _, err := board.Download(bs); err != nil {
		t.Fatal(err)
	}
	pre := board.Readback()
	mem2 := mem.Clone()
	mem2.SetBit(p.CLBBit(3, 3, 3), true)
	r := xhwif.NewReliable(Wrap(board, Spec{Nth: 1, Mode: ModeTruncate, Seed: 9}), xhwif.RetryPolicy{
		MaxAttempts: 3,
		BaseBackoff: time.Nanosecond,
		MaxBackoff:  time.Nanosecond,
		Verify:      true,
	})
	if _, err := r.DownloadCtx(context.Background(), bitstream.WriteFull(mem2)); err == nil {
		t.Fatal("exhausted retries reported success")
	}
	if !board.Readback().Equal(pre) {
		t.Fatal("device state changed after a fully-faulted download (rollback broken)")
	}
}

func TestInjectorForwardsReadback(t *testing.T) {
	mem, bs := testConfig(t, 5)
	p := device.MustByName("XCV50")
	board := xhwif.NewBoard(p)
	if _, err := board.Download(bs); err != nil {
		t.Fatal(err)
	}
	in := Wrap(board, Spec{})
	if !in.Readback().Equal(mem) {
		t.Fatal("Readback not forwarded")
	}
	fars := mem.NonZeroFrames()[:1]
	got, err := in.ReadbackFrames(fars)
	if err != nil || len(got) != 1 {
		t.Fatalf("ReadbackFrames not forwarded: %v", err)
	}
}

// liar reports every download as applied without writing anything: the
// failure mode only verify-after-write can catch.
type liar struct{ *xhwif.Board }

func (l liar) DownloadCtx(_ context.Context, bs []byte) (xhwif.DownloadStats, error) {
	return xhwif.DownloadStats{Bytes: len(bs), Attempts: 1}, nil
}

// TestLinkWrap pins the download-stack constructor's decision: the injector
// is added iff the spec is enabled, the reliability layer iff any knob is
// set, and that layer always verifies after write — so over a lying board
// every layered link fails the download while a bare one cannot tell.
func TestLinkWrap(t *testing.T) {
	_, bs := testConfig(t, 6)
	p := device.MustByName("XCV50")
	for _, tc := range []struct {
		name     string
		link     Link
		reliable bool // a ReliableHWIF on top
		injector bool // an Injector directly under it
	}{
		{"zero", Link{}, false, false},
		{"off", Link{Faults: "off"}, false, false},
		{"faults", Link{Faults: "nth=2,mode=error,seed=7"}, true, true},
		{"latency", Link{Faults: "latency=1ns"}, true, true},
		{"retries", Link{Retries: 2}, true, false},
		{"timeout", Link{Timeout: time.Minute}, true, false},
		{"verify", Link{Verify: true}, true, false},
		{"off with retries", Link{Faults: "off", Retries: 3}, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			board := xhwif.NewBoard(p)
			hw, err := tc.link.Wrap(board)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.reliable {
				if hw != xhwif.HWIF(board) {
					t.Fatalf("got %T, want the same *Board", hw)
				}
			} else {
				r, ok := hw.(*xhwif.ReliableHWIF)
				if !ok {
					t.Fatalf("got %T, want *xhwif.ReliableHWIF", hw)
				}
				if !r.Policy.Verify {
					t.Fatal("reliability layer does not verify after write")
				}
				if tc.link.Retries > 0 && r.Policy.MaxAttempts != tc.link.Retries || r.Policy.Timeout != tc.link.Timeout {
					t.Fatalf("policy %+v does not carry %+v", r.Policy, tc.link)
				}
				under := r.Inner
				if in, ok := under.(*Injector); ok != tc.injector {
					t.Fatalf("inner %T, injector wanted: %v", under, tc.injector)
				} else if ok {
					under = in.inner
				}
				if under != xhwif.HWIF(board) {
					t.Fatalf("stack bottoms out at %T, want the board", under)
				}
			}

			lying, err := tc.link.Wrap(liar{xhwif.NewBoard(p)})
			if err != nil {
				t.Fatal(err)
			}
			_, err = lying.DownloadCtx(context.Background(), bs)
			if tc.reliable && (err == nil || !strings.Contains(err.Error(), "verify failed")) {
				t.Fatalf("lying board: err = %v, want a verify failure", err)
			}
			if !tc.reliable && err != nil {
				t.Fatalf("bare lying board: %v", err)
			}
		})
	}
	if _, err := (Link{Faults: "mode=explode"}).Wrap(xhwif.NewBoard(p)); err == nil {
		t.Fatal("bad fault spec accepted")
	}
}
