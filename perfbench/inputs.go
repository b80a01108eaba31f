package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"deviant/internal/corpus"
)

// Seed streams keep the inputs of set-up and of the measured window
// apart, so no two of them share a corpus.
const (
	streamSetup = 1
	streamOps   = 2
)

// treeSeed derives the corpus seed of input i on one stream of a run
// from the run's seed (splitmix64 finalizer). The result is positive
// and odd, so it is also a valid corpusgen -seed (which treats 0 as
// "keep the spec's seed") for reproducing an input by hand.
func treeSeed(seed int64, stream, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)<<40 + uint64(i)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z>>2) | 1
}

// linuxTree is a linux247-spec corpus (80 units, about 13.9k lines).
func linuxTree(seed int64) *corpus.Corpus {
	spec := corpus.Linux247()
	spec.Seed = seed
	return corpus.Generate(spec)
}

// smallTree is a six-module corpus (about 1k lines) of the same idioms.
func smallTree(seed int64) *corpus.Corpus {
	spec := corpus.Linux247()
	spec.Seed = seed
	spec.Modules = 6
	return corpus.Generate(spec)
}

// freshSources is c's tree with a comment naming seed appended to every
// unit. The generator emits a module's bug-free templates identically
// under every seed, so without it most units of two trees would be
// equal and deviantd's snapshot store would hit on them. A comment
// below the last line changes no report and no ground-truth line.
func freshSources(c *corpus.Corpus, seed int64) map[string]string {
	files := make(map[string]string, len(c.Files))
	for name, src := range c.Files {
		files[name] = src
	}
	for _, u := range c.Units {
		files[u] += fmt.Sprintf("/* input %d */\n", seed)
	}
	return files
}

// writeTree materializes c under dir with its GROUND_TRUTH.tsv and reads
// the manifest back, so scoring uses exactly what is on disk.
func writeTree(c *corpus.Corpus, dir string) ([]corpus.Bug, error) {
	manifest, err := c.WriteToDir(dir)
	if err != nil {
		return nil, err
	}
	return corpus.ReadGroundTruth(manifest)
}

// edits is edit-warm's input: one code base, re-analyzed as its units
// are edited one at a time. The code base is the linux247 spec tree
// itself (what corpusgen -spec linux247 writes); the run's seed picks
// the order in which units are edited.
type edits struct {
	base  *corpus.Corpus
	order []int // unit indices, a seeded permutation
}

func newEdits(seed int64) *edits {
	base := corpus.Generate(corpus.Linux247())
	return &edits{base: base, order: rand.New(rand.NewSource(seed)).Perm(len(base.Units))}
}

// sources is the tree of edit i: the base with one unit, taken round
// robin in the seeded order, edited by appending an empty function
// whose name is unique to the edit. The appended function carries no
// belief (no pointer, lock, call or return value) and sits below every
// existing line, so the base tree's ground truth stays valid while the
// edited unit's content digest changes.
func (e *edits) sources(i int) map[string]string {
	files := make(map[string]string, len(e.base.Files))
	for k, v := range e.base.Files {
		files[k] = v
	}
	unit := e.base.Units[e.order[i%len(e.order)]]
	files[unit] += fmt.Sprintf("\nstatic void bench_edit_%d(void)\n{\n}\n", i)
	return files
}

// requestBody encodes an analyze request (also the job submit body).
func requestBody(files map[string]string) ([]byte, error) {
	return json.Marshal(struct {
		Sources map[string]string `json:"sources"`
	}{files})
}

// writeSources writes an in-memory tree under dir, for the CLI.
func writeSources(files map[string]string, dir string) error {
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			return err
		}
	}
	return nil
}
