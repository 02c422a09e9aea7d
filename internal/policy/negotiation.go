package policy

// Negotiation is the paper's threshold scheme and the default policy: a
// balancing round moves threads from the most loaded node to the least
// loaded one when the imbalance reaches Threshold, and spawns stay where
// the caller put them (placement happens only through the §4.4 slot
// negotiation, hence the name). This policy reproduces the seed
// balancer's behavior exactly.
type Negotiation struct {
	// Threshold is the minimum load imbalance (max - min resident
	// threads) that triggers a migration (default 2).
	Threshold int
	// MaxMoves bounds migrations per round (default 1).
	MaxMoves int
}

// NewNegotiation returns the default-tuned threshold policy.
func NewNegotiation() *Negotiation { return &Negotiation{Threshold: 2, MaxMoves: 1} }

// Name implements Policy.
func (p *Negotiation) Name() string { return "negotiation" }

// OnLoadReport implements Policy; the threshold scheme is memoryless.
func (p *Negotiation) OnLoadReport(LoadReport) {}

// extremes finds the first busiest and first idlest fresh nodes, in node
// order (ties break low, as in the seed balancer).
func extremes(v View) (busiest, idlest, max, min int) {
	busiest, idlest = -1, -1
	max, min = -1, 1<<30
	for _, r := range v.Reports {
		if r.Stale {
			continue
		}
		if r.Resident > max {
			max, busiest = r.Resident, r.Node
		}
		if r.Resident < min {
			min, idlest = r.Resident, r.Node
		}
	}
	return busiest, idlest, max, min
}

// ShouldMigrate implements Policy.
func (p *Negotiation) ShouldMigrate(v View) bool {
	busiest, idlest, max, min := extremes(v)
	return busiest >= 0 && idlest >= 0 && busiest != idlest && max-min >= p.threshold()
}

// PickTarget implements Policy: one busiest-to-idlest batch, halving the
// imbalance but never exceeding MaxMoves.
func (p *Negotiation) PickTarget(v View) []Move {
	busiest, idlest, max, min := extremes(v)
	if busiest < 0 || idlest < 0 || busiest == idlest || max-min < p.threshold() {
		return nil
	}
	count := p.maxMoves()
	if d := (max - min) / 2; d < count {
		count = d
	}
	if count < 1 {
		count = 1
	}
	return []Move{{Src: busiest, Dst: idlest, Count: count}}
}

// PickSpawn implements Policy: spawns are not rerouted.
func (p *Negotiation) PickSpawn(pref int, _ View) int { return pref }

func (p *Negotiation) threshold() int {
	if p.Threshold <= 0 {
		return 2
	}
	return p.Threshold
}

func (p *Negotiation) maxMoves() int {
	if p.MaxMoves <= 0 {
		return 1
	}
	return p.MaxMoves
}
