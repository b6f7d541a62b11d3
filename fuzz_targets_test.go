package xdaq

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMakeFuzzRunsEveryTarget fails when a fuzz target in the module is not
// run by the Makefile's fuzz recipe, so a new func Fuzz* cannot be
// forgotten there.
func TestMakeFuzzRunsEveryTarget(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, ok := strings.Cut(string(mk), "\nfuzz:\n")
	if !ok {
		t.Fatal("Makefile has no fuzz target")
	}
	if end := strings.Index(recipe, "\n\n"); end >= 0 {
		recipe = recipe[:end]
	}
	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w*)\(`)
	found := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			_, modErr := os.Stat(filepath.Join(path, "go.mod"))
			name := d.Name()
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || modErr == nil) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzFunc.FindAllStringSubmatch(string(src), -1) {
			found++
			line := "-fuzz '^" + m[1] + "$$' -fuzztime $(FUZZTIME) ./" + filepath.ToSlash(filepath.Dir(path)) + "/"
			if !strings.Contains(recipe, line) {
				t.Errorf("%s: %s is not in the Makefile's fuzz target (want a line with %q)", path, m[1], line)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("no fuzz targets found; is the walk rooted at the module?")
	}
}
