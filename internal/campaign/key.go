package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// EngineEpoch versions the campaign engine itself: the unit key
// schema, the Metrics serialisation, and the fold rules. Bumping it
// invalidates every cached unit of every spec.
const EngineEpoch = "campaign/v1"

// Key identifies one unit for caching: the spec's identity and
// versions, the cell coordinates, the unit's seed, and its block. Two
// units with equal keys are guaranteed to compute identical Metrics,
// because the trial body derives all randomness from the seed, cell
// and block alone.
type Key struct {
	Engine     string `json:"engine"`
	Experiment string `json:"experiment"`
	Epoch      string `json:"epoch"`
	Config     string `json:"config,omitempty"`
	Cell       Cell   `json:"cell"`
	Seed       int64  `json:"seed"`
	// Block is omitted at 0, so an unblocked spec's keys are the ones
	// it had before specs could block.
	Block int `json:"block,omitempty"`
}

// UnitKey builds the cache key for block b of trial i of the given
// cell.
func (s *Spec) UnitKey(cell Cell, trial, block int) Key {
	return Key{
		Engine:     EngineEpoch,
		Experiment: s.Name,
		Epoch:      s.Epoch,
		Config:     s.Config,
		Cell:       cell,
		Seed:       s.TrialSeed(trial),
		Block:      block,
	}
}

// Hash returns the key's content address: the hex SHA-256 of its
// canonical JSON encoding.
func (k Key) Hash() string {
	buf, err := json.Marshal(k)
	if err != nil {
		panic(fmt.Sprintf("campaign: key marshal: %v", err))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}
