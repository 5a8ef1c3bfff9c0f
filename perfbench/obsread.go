package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/obs"
	"repro/internal/stats"
)

// obsDoc is one scrape of an engine's obs registry, read through its
// public JSON rendering.
type obsDoc struct {
	scalars map[string]float64
	// hists are the histogram series in registration order, which is
	// their slot order in the registry; counts are their sample counts.
	hists  []string
	counts map[string]float64
}

func scrape(reg *obs.Registry) (obsDoc, error) {
	doc := obsDoc{scalars: map[string]float64{}, counts: map[string]float64{}}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf, nil); err != nil {
		return doc, err
	}
	dec := json.NewDecoder(&buf)
	if _, err := dec.Token(); err != nil { // {
		return doc, err
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return doc, err
		}
		name, _ := tok.(string)
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return doc, err
		}
		if len(raw) > 0 && raw[0] == '{' {
			var h struct{ Count float64 }
			if err := json.Unmarshal(raw, &h); err != nil {
				return doc, err
			}
			doc.hists = append(doc.hists, name)
			doc.counts[name] = h.Count
			continue
		}
		var v float64
		if err := json.Unmarshal(raw, &v); err != nil {
			return doc, fmt.Errorf("obs series %s: %w", name, err)
		}
		doc.scalars[name] = v
	}
	return doc, nil
}

// delta returns after − before for a scalar series.
func delta(before, after obsDoc, name string) float64 {
	return after.scalars[name] - before.scalars[name]
}

// histOf returns the merged histogram of a named series. The slot is the
// series' position among the registry's histograms in its JSON
// rendering; verifyHists checks the mapping once the engine is idle.
func histOf(reg *obs.Registry, doc obsDoc, name string) (*stats.LogHistogram, error) {
	for i, n := range doc.hists {
		if n == name {
			h := stats.NewLogHistogram(stats.DefaultLogHistSubBits)
			reg.MergedHist(obs.HistID(i), h)
			return h, nil
		}
	}
	return nil, fmt.Errorf("obs: no histogram %q", name)
}

// verifyHists checks, on an idle engine, that every named histogram read
// by slot has the sample count its JSON rendering reports.
func verifyHists(reg *obs.Registry, names ...string) error {
	doc, err := scrape(reg)
	if err != nil {
		return err
	}
	for _, name := range names {
		h, err := histOf(reg, doc, name)
		if err != nil {
			return err
		}
		if float64(h.Count()) != doc.counts[name] {
			return fmt.Errorf("obs: histogram %s read by slot has %d samples, its rendering %v", name, h.Count(), doc.counts[name])
		}
	}
	return nil
}

// histDelta returns the samples a named histogram gained between two
// reads.
func histDelta(before, after *stats.LogHistogram) *stats.LogHistogram {
	d := stats.NewLogHistogram(stats.DefaultLogHistSubBits)
	d.SetDelta(after, before)
	return d
}
