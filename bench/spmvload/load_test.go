package main

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestScheduleIsSeededAndPaced(t *testing.T) {
	window := 10 * time.Second
	a := schedule(7, 25, window)
	b := schedule(7, 25, window)
	c := schedule(8, 25, window)
	if len(a) != 250 {
		t.Fatalf("%d arrivals, want 250", len(a))
	}
	period := 40 * time.Millisecond
	same, differs := true, false
	for k := range a {
		same = same && a[k] == b[k]
		differs = differs || a[k] != c[k]
		if lo := time.Duration(k) * period; a[k] < lo || a[k] >= lo+period/jitterShare {
			t.Fatalf("op %d due at %v, outside the first quarter of its period [%v, %v)", k, a[k], lo, lo+period/jitterShare)
		}
	}
	if !same || !differs {
		t.Errorf("same seed same schedule: %v; other seed other schedule: %v", same, differs)
	}
}

// A handler that stalls: the first op blocks the only connection for 80 ms
// while three more fall due. The open loop must charge them the wait — the
// latency of each runs from its due time — and report how late it sent them.
func TestOpenLoopChargesStallToLaterOps(t *testing.T) {
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	due := []time.Duration{0, ms(10), ms(20), ms(30)}
	var seq atomic.Int64
	seq.Store(100)
	var mu sync.Mutex
	var seqs []int
	op := func(_ context.Context, _, n int) error {
		mu.Lock()
		seqs = append(seqs, n)
		mu.Unlock()
		if n == 100 {
			time.Sleep(ms(80))
		}
		return nil
	}
	p, err := runOpen(context.Background(), 1, ms(40), due, &seq, op)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) != 4 || seq.Load() != 104 {
		t.Fatalf("%d samples, seq %d; want 4 and 104", len(p.samples), seq.Load())
	}
	for i, n := range seqs {
		if n != 100+i {
			t.Errorf("op %d ran as seq %d: due ops must be sent in order", i, n)
		}
	}
	// The window closed at 40 ms with the connection still stalled: three
	// ops were due and unsent.
	if p.backlogEnd != 3 {
		t.Errorf("backlog at window close = %d, want 3", p.backlogEnd)
	}
	for i, s := range p.samples {
		if !s.ok || s.due != due[i] {
			t.Errorf("sample %d = %+v", i, s)
		}
	}
	// Op 1 was due at 10 ms but could not be sent before 80 ms.
	if late := p.samples[1].lateMs(); late < 65 {
		t.Errorf("op 1 sent %v ms late, want at least the 70 the stall held it", late)
	}
	if lat := p.samples[1].latencyMs(); lat < 65 {
		t.Errorf("op 1 latency %v ms: must run from the due time, not the send", lat)
	}
	if late := p.samples[0].lateMs(); late >= p.samples[1].lateMs() {
		t.Errorf("op 0 sent %v ms late, op 1 %v ms: the stall is op 1's to pay", late, p.samples[1].lateMs())
	}
	// The stretch lasts until the last op is done, not until the window
	// closes.
	if p.elapsed < ms(80) {
		t.Errorf("elapsed = %v, want the 80 ms the stalled op took at least", p.elapsed)
	}
}

// In a closed loop an op is due when the client's previous op completed;
// housekeeping the op reports as prep moves the due time, so it is in the
// window but in no op's latency.
func TestClosedLoopDueTimesAndPrep(t *testing.T) {
	const prep = 30 * time.Millisecond
	var seq atomic.Int64
	op := func(_ context.Context, _, n int) (time.Duration, error) {
		if n == 1 {
			time.Sleep(prep) // housekeeping
			time.Sleep(5 * time.Millisecond)
			return prep, nil
		}
		time.Sleep(5 * time.Millisecond)
		return 0, nil
	}
	window := 150 * time.Millisecond
	p, err := runClosed(context.Background(), 1, window, &seq, op)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) < 3 {
		t.Fatalf("only %d ops in the window", len(p.samples))
	}
	if p.samples[0].due != 0 {
		t.Errorf("first op due at %v, want 0", p.samples[0].due)
	}
	if got, want := p.samples[1].due, p.samples[0].done+prep; got != want {
		t.Errorf("op 1 due at %v, want op 0's completion plus its own housekeeping, %v", got, want)
	}
	if got := p.samples[2].due; got != p.samples[1].done {
		t.Errorf("op 2 due at %v, want op 1's completion %v", got, p.samples[1].done)
	}
	if last := p.samples[len(p.samples)-1]; last.sent >= window {
		t.Errorf("an op was started at %v, after the window closed", last.sent)
	}
}

func TestParseStatCPU(t *testing.T) {
	// utime 250 and stime 50 ticks, behind a command name with spaces and
	// a parenthesis.
	line := "4242 (spm vd) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 50 0 0 20 0 5 0 100 0 0\n"
	got, err := parseStatCPU([]byte(line))
	if err != nil || got != 300*clockTickMs {
		t.Errorf("parseStatCPU = %v, %v; want %v", got, err, 300*clockTickMs)
	}
	if _, err := parseStatCPU([]byte("garbage")); err == nil {
		t.Error("garbage parsed")
	}
}
