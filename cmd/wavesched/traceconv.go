package main

import (
	"flag"
	"io"
	"os"

	"wavesched/internal/telemetry"
)

// traceconvMain is the `wavesched traceconv` entry point: it converts a
// JSONL trace file (written with -trace) to Chrome trace_event JSON
// loadable in chrome://tracing or ui.perfetto.dev.
func traceconvMain(args []string) {
	fs := flag.NewFlagSet("wavesched traceconv", flag.ContinueOnError)
	in := fs.String("in", "", "JSONL trace file written with -trace (required)")
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		fatal("%v", err)
	}
	if *in == "" {
		fatal("traceconv: -in is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	var w io.Writer = os.Stdout
	if *out != "" {
		of, err := os.Create(*out)
		if err != nil {
			fatal("%v", err)
		}
		defer func() {
			if err := of.Close(); err != nil {
				fatal("%v", err)
			}
		}()
		w = of
	}
	if err := telemetry.WriteChromeTrace(f, w); err != nil {
		fatal("traceconv: %v", err)
	}
}
