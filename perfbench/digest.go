package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"ncap/internal/cluster"
	"ncap/internal/report"
)

// digestResults hashes every Result of a pass in order. Each Result is
// serialized as its canonical report run (latency percentiles, energy,
// counts, C-states, overload and fabric rollups), the JSON ncap-report-v1
// stores.
func digestResults(tags []string, results []cluster.Result) string {
	sums := make([]string, len(results))
	for i, r := range results {
		blob, err := json.Marshal(report.FromResult(tags[i], r))
		if err != nil {
			return "unserializable: " + err.Error()
		}
		sums[i] = digestBytes(blob)
	}
	return digestStrings(sums)
}

func digestBytes(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func digestStrings(parts []string) string {
	return digestBytes([]byte(strings.Join(parts, "\n")))
}

// pinFile holds the pinned pass digests: workload → size ("full" or
// "mini") → seed → digest. Regenerate an entry with -pin after a change
// that is meant to alter simulated results, and say why in the commit.
//
//go:embed digests.json
var pinFile []byte

type pinTable map[string]map[string]map[string]string

func loadPins() (pinTable, error) {
	var t pinTable
	if err := json.Unmarshal(pinFile, &t); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return t, nil
}

// lookup returns the pinned digest, if any.
func (t pinTable) lookup(workload string, mini bool, seed int64) (string, bool) {
	size := "full"
	if mini {
		size = "mini"
	}
	d, ok := t[workload][size][strconv.FormatInt(seed, 10)]
	return d, ok
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
