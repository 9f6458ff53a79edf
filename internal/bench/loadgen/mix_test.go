package loadgen

import (
	"reflect"
	"testing"
)

func TestParseMix(t *testing.T) {
	cases := []struct {
		in   string
		want Mix
	}{
		{"get=70,put=20,batch=5,queue=5", Mix{70, 20, 5, 5}},
		{"get=7,put=2,batch=1,queue=1", Mix{7, 2, 1, 1}},
		{"get=1", Mix{Get: 1}},
		{"queue=3,get=1", Mix{Get: 1, Queue: 3}},
		{" get = 10 , put = 5 ", Mix{Get: 10, Put: 5}},
		{"get=1,put=0", Mix{Get: 1}},
	}
	for _, c := range cases {
		got, err := ParseMix(c.in)
		if err != nil {
			t.Errorf("ParseMix(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseMix(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseMixErrors(t *testing.T) {
	for _, in := range []string{
		"",             // empty
		"   ",          // blank
		"get=1,,put=2", // empty component
		"get",          // no weight
		"get=",         // empty weight
		"get=x",        // non-numeric
		"get=-1",       // negative
		"get=1,get=2",  // repeated class
		"fetch=1",      // unknown class
		"get=0,put=0",  // nothing positive
	} {
		if _, err := ParseMix(in); err == nil {
			t.Errorf("ParseMix(%q) succeeded, want error", in)
		}
	}
}

func TestMixStringRoundTrip(t *testing.T) {
	for _, m := range []Mix{DefaultMix(), {Get: 1}, {Get: 3, Queue: 2}, {Put: 1, Batch: 1}} {
		got, err := ParseMix(m.String())
		if err != nil {
			t.Fatalf("ParseMix(%q): %v", m.String(), err)
		}
		if got != m {
			t.Errorf("round trip %+v → %q → %+v", m, m.String(), got)
		}
	}
}

func TestMixClasses(t *testing.T) {
	if got := DefaultMix().Classes(); !reflect.DeepEqual(got, []string{"get", "put", "batch", "queue"}) {
		t.Errorf("DefaultMix classes %v", got)
	}
	if got := (Mix{Queue: 1, Get: 2}).Classes(); !reflect.DeepEqual(got, []string{"get", "queue"}) {
		t.Errorf("sparse mix classes %v", got)
	}
}
