package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"github.com/essat/essat/internal/experiment"
)

// pinsJSON holds, for every entry of every workload's input pool, the
// event count and output digest the baseline commit produced. Any
// change to what a run computes shows up as a mismatch, which the
// benchmark counts as a failed operation.
//
//go:embed pins.json
var pinsJSON []byte

type pin struct {
	Events uint64 `json:"events"`
	Digest string `json:"digest"`
}

// pinSet maps a workload name to its pool's pins, by entry index.
type pinSet map[string][]pin

func loadPins() (pinSet, error) {
	var p pinSet
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

// check compares one output with the pin of entry i of workload w.
func (p pinSet) check(w string, i int, events uint64, dig string) error {
	pins := p[w]
	if i < 0 || i >= len(pins) {
		return fmt.Errorf("%s entry %d: no pinned output", w, i)
	}
	if want := pins[i]; want.Events != events || want.Digest != dig {
		return fmt.Errorf("%s entry %d: got %d events digest %s, pinned %d events digest %s",
			w, i, events, dig, want.Events, want.Digest)
	}
	return nil
}

// recordPins runs every pool entry once and writes the pins file. The
// serve-open pins are digests of the response the server derives from
// each result, so a response can be checked directly.
func recordPins(path string) error {
	grid := paperGridScenarios()
	huge, err := hugeScenario()
	if err != nil {
		return err
	}
	camp := make([]experiment.Scenario, campaignCells*campaignVariants)
	for i := range camp {
		if camp[i], err = campaignSpec(i).Scenario(); err != nil {
			return err
		}
	}
	srv := make([]experiment.Scenario, len(protocols)*serveSeeds)
	for i := range srv {
		if srv[i], err = serveSpec(i).Scenario(); err != nil {
			return err
		}
	}

	out := pinSet{}
	for _, w := range []struct {
		name string
		scs  []experiment.Scenario
	}{
		{"paper-grid", grid},
		{"huge-10k", []experiment.Scenario{huge}},
		{"mixed-campaign", camp},
		{"serve-open", srv},
	} {
		jobs := newJobs(w.scs)
		stagePass(jobs, runtime.NumCPU(), experiment.NewDeployCache(0), pinDigest(w.name), nil, 0)
		pins := make([]pin, len(jobs))
		for i, j := range jobs {
			if j.err != nil {
				return fmt.Errorf("%s entry %d: %w", w.name, i, j.err)
			}
			pins[i] = pin{Events: j.res.Events, Digest: j.digest}
		}
		out[w.name] = pins
		fmt.Fprintf(os.Stderr, "pinned %d %s outputs\n", len(pins), w.name)
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// pinDigest returns the digest a workload pins for a staged run: the
// result digest, or for serve-open the digest of the response the
// server derives from the result.
func pinDigest(workload string) func(*experiment.Result) string {
	if workload == "serve-open" {
		return func(r *experiment.Result) string { return responseDigest(asResponse(r)) }
	}
	return resultDigest
}

func newJobs(scs []experiment.Scenario) []*job {
	jobs := make([]*job, len(scs))
	for i, sc := range scs {
		jobs[i] = &job{sc: sc}
	}
	return jobs
}
