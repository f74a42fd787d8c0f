package job

import (
	"bytes"
	"strings"
	"testing"
)

func sampleJobs() []Job {
	return []Job{
		{ID: 1, Arrival: 0, Src: 0, Dst: 1, Size: 10.5, Start: 1, End: 5},
		{ID: 2, Arrival: 0.5, Src: 2, Dst: 3, Size: 3.25, Start: 2, End: 9.75},
	}
}

func TestJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, sampleJobs()); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleJobs()
	if len(back) != len(want) {
		t.Fatalf("len %d", len(back))
	}
	for i := range want {
		if back[i] != want[i] {
			t.Errorf("job %d: %+v != %+v", i, back[i], want[i])
		}
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Error("bad JSON accepted")
	}
	// Valid JSON, invalid job (src == dst).
	text := `[{"id":1,"arrival":0,"src":0,"dst":0,"size":5,"start":0,"end":2}]`
	if _, err := ReadJSON(strings.NewReader(text)); err == nil {
		t.Error("invalid job accepted")
	}
}

// TestDegenerateJobsRejected: a zero-size transfer and an empty window
// (S_i == E_i) both fail validation on read, so no
// degenerate 6-tuple can enter the pipeline from a trace file.
func TestDegenerateJobsRejected(t *testing.T) {
	jsonCases := map[string]string{
		"zero size":    `[{"id":1,"arrival":0,"src":0,"dst":1,"size":0,"start":0,"end":2}]`,
		"empty window": `[{"id":1,"arrival":0,"src":0,"dst":1,"size":5,"start":2,"end":2}]`,
	}
	for name, text := range jsonCases {
		if _, err := ReadJSON(strings.NewReader(text)); err == nil {
			t.Errorf("ReadJSON accepted %s job", name)
		}
	}
	// The same tuples fail Validate directly, so in-process submitters
	// (HTTP API, sim) see the identical rule.
	for name, j := range map[string]Job{
		"zero size":    {ID: 1, Src: 0, Dst: 1, Size: 0, Start: 0, End: 2},
		"empty window": {ID: 1, Src: 0, Dst: 1, Size: 5, Start: 2, End: 2},
	} {
		if err := j.Validate(); err == nil {
			t.Errorf("Validate accepted %s job", name)
		}
	}
}

func TestReadJSONRejectsDuplicateIDs(t *testing.T) {
	text := `[
  {"id":7,"arrival":0,"src":0,"dst":1,"size":5,"start":0,"end":2},
  {"id":7,"arrival":1,"src":2,"dst":3,"size":4,"start":1,"end":3}
]`
	if _, err := ReadJSON(strings.NewReader(text)); err == nil {
		t.Error("duplicate job IDs accepted by ReadJSON")
	} else if !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("error %q does not mention the duplicate", err)
	}
}
