package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// pins.json holds the simulated statistics a change that only speeds
// the simulator up must leave identical: per-kernel cycles, retired
// instructions and stage firings on the `all` processor, and the bveq
// point and spot-check counts per hand-written variant and per seed.
// A run whose statistics differ fails. Regenerate with -write-pins
// only when the modelled hardware or the enumeration changes on
// purpose.
//
//go:embed pins.json
var pinsJSON []byte

type kernelPin struct {
	Cycles  int    `json:"cycles"`
	Retired int    `json:"retired"`
	Firings uint64 `json:"firings"`
}

type countPin struct {
	Design     string `json:"design,omitempty"`
	Points     int    `json:"points"`
	SpotChecks int    `json:"spot_checks"`
}

type pinSet struct {
	Kernels  map[string]kernelPin `json:"kernels"`
	Variants map[string]countPin  `json:"bveq_variants"`
	// Generated holds, per seed, each generated bveq design's name and
	// counts. Seeds outside the table are checked against the
	// closed-form enumeration size only.
	Generated map[string][]countPin `json:"bveq_generated"`
}

var pins = func() pinSet {
	var p pinSet
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		panic("pins.json: " + err.Error())
	}
	return p
}()

// checkKernel compares one kernel run's statistics with its pin.
func (p pinSet) checkKernel(name string, cycles, retired int, firings uint64) string {
	want, ok := p.Kernels[name]
	if !ok {
		return name + ": no pinned statistics"
	}
	if got := (kernelPin{cycles, retired, firings}); got != want {
		return fmt.Sprintf("%s: simulated statistics %+v differ from pinned %+v", name, got, want)
	}
	return ""
}

// pinnedPinsSeeds is how many seeds -write-pins tabulates.
const pinnedPinsSeeds = 64

// printPins recomputes every pin by running the program.
func printPins(w io.Writer) error {
	out := pinSet{Kernels: map[string]kernelPin{}, Variants: map[string]countPin{}, Generated: map[string][]countPin{}}
	ks, err := assembleKernels()
	if err != nil {
		return err
	}
	for _, k := range ks {
		r, reason := runKernel(nil, 0, k)
		if reason != "" {
			return errors.New(reason)
		}
		out.Kernels[k.w.Name] = kernelPin{r.cycles, r.retired, r.firings}
	}
	for _, d := range variantDesigns() {
		c, err := verifyCounts(d)
		if err != nil {
			return err
		}
		out.Variants[d.name] = c
	}
	for seed := uint64(0); seed < pinnedPinsSeeds; seed++ {
		var cs []countPin
		for _, d := range generatedDesigns(seed) {
			c, err := verifyCounts(d)
			if err != nil {
				return err
			}
			c.Design = d.name
			cs = append(cs, c)
		}
		out.Generated[strconv.FormatUint(seed, 10)] = cs
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
