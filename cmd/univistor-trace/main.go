// Command univistor-trace validates Chrome trace-event JSON files exported
// with -trace by univistor-sim or univibench, and prints what each holds.
// It exits 1 on the first file that is unreadable or invalid.
//
// Usage:
//
//	univistor-trace trace.json [more.json ...]
package main

import (
	"fmt"
	"os"
	"strings"

	"univistor/internal/trace"
)

func main() {
	if len(os.Args) < 2 || strings.HasPrefix(os.Args[1], "-") {
		fmt.Fprintln(os.Stderr, "usage: univistor-trace FILE...")
		os.Exit(2)
	}
	for _, path := range os.Args[1:] {
		check(path)
	}
}

// check validates one exported trace file and prints what it found.
func check(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal("%v", err)
	}
	rep, err := trace.ValidateChrome(data)
	if err != nil {
		fatal("invalid trace %s: %v", path, err)
	}
	fmt.Printf("%s: valid — %d events, %d spans, %d flows, %d resource tracks, %d counter series\n",
		path, rep.Events, rep.Spans, rep.Flows, len(rep.Resources), len(rep.Counters))
	fmt.Printf("categories: %s\n", strings.Join(rep.Categories, ", "))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "univistor-trace: "+format+"\n", args...)
	os.Exit(1)
}
