package failure

import (
	"testing"
	"time"
)

func targets() []Target {
	return []Target{{Component: "sim", Ranks: 256}, {Component: "ana", Ranks: 64}}
}

func TestExponentialDeterministic(t *testing.T) {
	a, err := Exponential(42, 10*time.Minute, 3, time.Hour, targets())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Exponential(42, 10*time.Minute, 3, time.Hour, targets())
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("lens %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules differ at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c, _ := Exponential(43, 10*time.Minute, 3, time.Hour, targets())
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical schedules")
	}
}

func TestExponentialWithinHorizonAndSorted(t *testing.T) {
	horizon := 40 * time.Minute
	s, err := Exponential(7, 10*time.Minute, 10, horizon, targets())
	if err != nil {
		t.Fatal(err)
	}
	for i, inj := range s {
		if inj.At <= 0 || inj.At >= horizon {
			t.Fatalf("injection %d at %v outside horizon", i, inj.At)
		}
		if i > 0 && s[i].At < s[i-1].At {
			t.Fatal("schedule not sorted")
		}
		if inj.Component != "sim" && inj.Component != "ana" {
			t.Fatalf("bad component %q", inj.Component)
		}
	}
}

func TestExponentialTargetWeighting(t *testing.T) {
	// With sim 4x larger than ana, most failures should land on sim.
	s, _ := Exponential(1, time.Minute, 400, time.Hour, targets())
	simCount := 0
	for _, inj := range s {
		if inj.Component == "sim" {
			simCount++
			if inj.Rank < 0 || inj.Rank >= 256 {
				t.Fatalf("rank %d out of range", inj.Rank)
			}
		} else if inj.Rank < 0 || inj.Rank >= 64 {
			t.Fatalf("ana rank %d out of range", inj.Rank)
		}
	}
	frac := float64(simCount) / 400
	if frac < 0.7 || frac > 0.9 {
		t.Fatalf("sim got %.2f of failures, expected ~0.8", frac)
	}
}

func TestExponentialValidation(t *testing.T) {
	if _, err := Exponential(1, 0, 1, time.Hour, targets()); err == nil {
		t.Fatal("zero MTBF accepted")
	}
	if _, err := Exponential(1, time.Minute, 1, 0, targets()); err == nil {
		t.Fatal("zero horizon accepted")
	}
	if _, err := Exponential(1, time.Minute, 1, time.Hour, nil); err == nil {
		t.Fatal("no targets accepted")
	}
	if _, err := Exponential(1, time.Minute, 1, time.Hour, []Target{{Component: "x", Ranks: 0}}); err == nil {
		t.Fatal("zero ranks accepted")
	}
}

func TestFixedSorts(t *testing.T) {
	s := Fixed(
		Injection{At: 3 * time.Minute, Component: "b"},
		Injection{At: time.Minute, Component: "a"},
	)
	if s[0].Component != "a" || s[1].Component != "b" {
		t.Fatalf("order = %v", s)
	}
}
