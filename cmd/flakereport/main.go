// Command flakereport reads `go test -json` output and prints the name
// and full output of every failed test, so a red run of `make flake`
// leaves its evidence on the terminal as well as in the kept JSON.
//
// Usage:
//
//	go run ./cmd/flakereport flake/run-3.json
//
// A package that failed outside any test (a build error, a crashed test
// binary) is reported with its package-level output, after the output of
// the tests that were still running when it failed.  The exit status is 1 when anything failed, 0 otherwise.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// event is one line of `go test -json` (cmd/test2json).
type event struct {
	Action     string
	Package    string
	ImportPath string
	Test       string
	Output     string
}

func main() {
	failed := 0
	for _, name := range os.Args[1:] {
		n, err := report(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flakereport:", err)
			os.Exit(2)
		}
		failed += n
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// report prints every failure recorded in one JSON file and returns how
// many there were.
func report(name string) (int, error) {
	f, err := os.Open(name)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	output := map[string]*strings.Builder{} // "pkg test" -> output
	running := map[string]bool{}            // tests started and not yet ended
	var fails []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		var ev event
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue // a stray non-JSON line (e.g. a linker warning)
		}
		pkg := ev.Package
		if pkg == "" {
			pkg = ev.ImportPath
		}
		key := pkg + " " + ev.Test
		switch ev.Action {
		case "output", "build-output":
			if output[key] == nil {
				output[key] = &strings.Builder{}
			}
			output[key].WriteString(ev.Output)
		case "run":
			running[key] = true
		case "pass", "skip":
			delete(running, key)
		case "fail", "build-fail":
			delete(running, key)
			if ev.Test == "" {
				// A test binary that dies (out of memory, a panic on another
				// goroutine, a timeout) never ends the tests it was running:
				// they are the ones its stack trace is about.
				for k := range running {
					if strings.HasPrefix(k, pkg+" ") {
						fails = append(fails, k)
						delete(running, k)
					}
				}
			}
			fails = append(fails, key)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	for _, key := range fails {
		pkg, test, _ := strings.Cut(key, " ")
		if test == "" {
			test = "(package)"
		}
		fmt.Printf("--- %s: %s %s\n", name, pkg, test)
		if out := output[key]; out != nil {
			fmt.Print(out.String())
		}
	}
	return len(fails), nil
}
