package job

import (
	"strings"
	"testing"
)

func valid() Job {
	return Job{ID: 1, Arrival: 0, Src: 0, Dst: 1, Size: 10, Start: 1, End: 5}
}

func TestValidate(t *testing.T) {
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Job)
	}{
		{"zero size", func(j *Job) { j.Size = 0 }},
		{"negative size", func(j *Job) { j.Size = -1 }},
		{"same endpoints", func(j *Job) { j.Dst = j.Src }},
		{"arrival after start", func(j *Job) { j.Arrival = 2 }},
		{"start at end", func(j *Job) { j.Start = j.End }},
		{"start after end", func(j *Job) { j.Start = j.End + 1 }},
	}
	for _, c := range cases {
		j := valid()
		c.mut(&j)
		if err := j.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestWindow(t *testing.T) {
	j := valid()
	if j.Window() != 4 {
		t.Errorf("Window = %g", j.Window())
	}
}

func TestString(t *testing.T) {
	s := valid().String()
	if !strings.Contains(s, "job 1") || !strings.Contains(s, "0->1") {
		t.Errorf("String = %q", s)
	}
}

func TestValidateAll(t *testing.T) {
	a := valid()
	b := valid()
	b.ID = 2
	if err := ValidateAll([]Job{a, b}); err != nil {
		t.Fatal(err)
	}
	dup := valid()
	if err := ValidateAll([]Job{a, dup}); err == nil {
		t.Error("duplicate IDs accepted")
	}
	bad := valid()
	bad.Size = -1
	if err := ValidateAll([]Job{bad}); err == nil {
		t.Error("invalid job accepted")
	}
	if err := ValidateAll(nil); err != nil {
		t.Errorf("empty slice rejected: %v", err)
	}
}

func TestMaxEnd(t *testing.T) {
	a := valid()
	b := valid()
	b.ID = 2
	b.End = 20
	if m := MaxEnd([]Job{a, b}); m != 20 {
		t.Errorf("MaxEnd = %g", m)
	}
	if m := MaxEnd(nil); m != 0 {
		t.Errorf("MaxEnd(nil) = %g", m)
	}
}
