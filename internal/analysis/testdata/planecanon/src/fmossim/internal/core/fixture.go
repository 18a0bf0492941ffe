// Planecanon fixtures: raw plane writes on the real
// switchsim.LanePlanes type fire outside internal/switchsim; reads and
// the exported operations do not, nor do same-named fields of other types.
package core

import (
	"fmossim/internal/logic"
	"fmossim/internal/switchsim"
)

type ownPlanes struct{ V, X uint64 }

func rawWrites(p *switchsim.LanePlanes) {
	p.V |= 1        // want `direct write of LanePlanes\.V outside fmossim/internal/switchsim`
	p.X = 0         // want `direct write of LanePlanes\.X`
	p.V, p.X = 0, 0 // want `direct write of LanePlanes\.V` `direct write of LanePlanes\.X`
}

func addressTaken(p *switchsim.LanePlanes) *uint64 {
	return &p.X // want `taking the address of LanePlanes\.X`
}

func exportedOperations(p *switchsim.LanePlanes) uint64 {
	p.Set(3, logic.Hi)
	p.Clear(4)
	return p.EqValueMask(logic.X)
}

func readsAreFine(p switchsim.LanePlanes) uint64 {
	return p.V&^p.X | p.X
}

func otherTypesAreFine(o *ownPlanes) {
	o.V |= 1
	o.X = 0
}
