package job

import (
	"strings"
	"testing"
)

// FuzzReadJSON checks the JSON job codec against arbitrary input.
func FuzzReadJSON(f *testing.F) {
	f.Add(`[{"id":1,"arrival":0,"src":0,"dst":1,"size":5,"start":0,"end":2}]`)
	f.Add("[]")
	f.Add("{")
	f.Add("")
	f.Fuzz(func(t *testing.T, text string) {
		jobs, err := ReadJSON(strings.NewReader(text))
		if err != nil {
			return
		}
		if err := ValidateAll(jobs); err != nil {
			t.Fatalf("accepted invalid jobs: %v", err)
		}
	})
}
