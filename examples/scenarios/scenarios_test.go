package scenarios

import (
	"io/fs"
	"testing"
)

// TestBundledScenariosValidate loads every embedded scenario file and
// expands it, so a file a figure command runs cannot fail to parse or
// validate. It runs no simulation.
func TestBundledScenariosValidate(t *testing.T) {
	names, err := fs.Glob(files, "*.json")
	if err != nil || len(names) == 0 {
		t.Fatalf("no embedded scenarios: %v", err)
	}
	for _, name := range names {
		sc, err := Load(name)
		if err != nil {
			t.Fatal(err)
		}
		units, err := sc.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if len(units) == 0 {
			t.Errorf("%s expands to no units", name)
		}
	}
}
