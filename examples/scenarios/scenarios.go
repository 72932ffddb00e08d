// Package scenarios embeds the bundled scenario files, so the acesim
// binary runs the figures they define (`acesim fig5`) from any working
// directory.
package scenarios

import (
	"embed"
	"fmt"

	"acesim/internal/scenario"
)

//go:embed *.json
var files embed.FS

// Load parses the named bundled scenario file, e.g. "fig5.json".
func Load(name string) (*scenario.Scenario, error) {
	f, err := files.Open(name)
	if err != nil {
		return nil, fmt.Errorf("bundled scenario: %w", err)
	}
	defer f.Close()
	sc, err := scenario.Parse(f)
	if err != nil {
		return nil, fmt.Errorf("bundled scenario %s: %w", name, err)
	}
	return sc, nil
}
