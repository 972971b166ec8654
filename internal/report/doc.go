// Package report renders lazysim run documents and sweep documents into a
// single self-contained HTML page: run summary, scheduler decision-reason
// breakdown, adaptation timelines, latency CDFs, bank heatmaps, quality
// histograms, sweep dashboard, with an optional side-by-side comparison. The
// page embeds every byte it needs — no scripts, no external assets, zero
// network fetches — so it can be archived next to the JSON it was built
// from, or served on demand by the lazyd daemon.
//
// Documents decode into the producer's own types (rundoc.Doc and the sweep
// block of rundoc.SweepDoc), so the page reads exactly the fields lazysim
// writes. Unknown members are ignored, so a newer document still renders.
package report

import (
	"encoding/json"
	"fmt"
	"os"

	"lazydram/internal/obs"
	"lazydram/internal/rundoc"
)

// Doc is one parsed run or sweep document. Construct it with Load or Parse.
type Doc struct {
	Path string `json:"-"`
	rundoc.Doc
	// Sweep is the run-lifecycle block of a sweep document (lazysim -sweep
	// -json or experiments -runlog); its presence switches on the sweep
	// dashboard section.
	Sweep *obs.SweepSummary `json:"sweep"`
}

// Parse decodes one run document from raw JSON bytes; path labels the
// document in error messages and section headers.
func Parse(raw []byte, path string) (*Doc, error) {
	d := &Doc{Path: path}
	if err := json.Unmarshal(raw, d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// Load reads and parses the run document at path.
func Load(path string) (*Doc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(raw, path)
}

// title names the run for section headers.
func (d *Doc) title() string {
	if d.App == "" && d.Scheme == "" {
		return d.Path
	}
	return fmt.Sprintf("%s · %s (seed %d)", d.App, d.Scheme, d.Seed)
}
