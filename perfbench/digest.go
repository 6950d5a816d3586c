package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"strconv"
)

// digestsFile records the expected output digests, keyed by workload,
// digest name and input seed ("*" for workloads without generated inputs).
const digestsFile = "perfbench/digests.json"

// digest accumulates the simulated outputs of a workload into a short
// hash: floats by their exact bits, so any drift in virtual time shows.
type digest struct{ h []byte }

func (d *digest) add(format string, args ...any) {
	d.h = fmt.Appendf(d.h, format, args...)
	d.h = append(d.h, '\n')
}

func (d *digest) sum() string {
	s := sha256.Sum256(d.h)
	return hex.EncodeToString(s[:8])
}

// digestCheck is one digest of a run and its verdict against the record:
// "same", "changed", or "unrecorded" when none is stored for the input seed.
type digestCheck struct {
	Name   string `json:"name"`
	Value  string `json:"value"`
	Want   string `json:"want,omitempty"`
	Status string `json:"status"`
	// SeedFree marks digests whose inputs do not depend on the input seed.
	SeedFree bool `json:"seedFree,omitempty"`
}

type digestRecord map[string]map[string]map[string]string

func loadDigests() (digestRecord, error) {
	b, err := os.ReadFile(digestsFile)
	if errors.Is(err, fs.ErrNotExist) {
		return digestRecord{}, nil
	}
	if err != nil {
		return nil, err
	}
	var rec digestRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", digestsFile, err)
	}
	return rec, nil
}

func seedKey(d digestCheck, seed int64) string {
	if d.SeedFree {
		return "*"
	}
	return strconv.FormatInt(seed, 10)
}

func (d *digestCheck) check(rec digestRecord, workload string, seed int64) {
	want, ok := rec[workload][d.Name][seedKey(*d, seed)]
	switch {
	case !ok:
		d.Status = "unrecorded"
	case want == d.Value:
		d.Status = "same"
	default:
		d.Want, d.Status = want, "changed"
	}
}

func (rec digestRecord) set(workload string, d digestCheck, seed int64) {
	if rec[workload] == nil {
		rec[workload] = map[string]map[string]string{}
	}
	if rec[workload][d.Name] == nil {
		rec[workload][d.Name] = map[string]string{}
	}
	rec[workload][d.Name][seedKey(d, seed)] = d.Value
}

func (rec digestRecord) save() error {
	// encoding/json sorts map keys, so the file is stable.
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestsFile, append(b, '\n'), 0o644)
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
