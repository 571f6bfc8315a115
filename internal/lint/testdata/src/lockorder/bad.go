// Deliberate inversions of the documented lock orders. The analyzer
// matches locks by (type base name, field name), so these fixture types
// model the cluster shapes without importing unexported internals.
package lockorder

import "sync"

type proxySession struct {
	mu sync.Mutex
}

type backend struct {
	mu sync.Mutex
}

type fleet struct {
	mu sync.Mutex
}

type Gateway struct {
	memberMu sync.Mutex
	fleet    *fleet
}

// The documented order is ps.mu before be.mu; this nests the other way.
func inverted(ps *proxySession, be *backend) {
	be.mu.Lock()
	ps.mu.Lock() // want `acquiring proxySession\.mu while backend\.mu is held inverts the documented`
	ps.mu.Unlock()
	be.mu.Unlock()
}

// The caller holds be.mu (declared by annotation); taking ps.mu inside
// is the same inversion one level down the call graph.
//
//lint:holds backend.mu
func invertedViaAnnotation(ps *proxySession) {
	ps.mu.Lock() // want `acquiring proxySession\.mu while backend\.mu is held inverts the documented`
	ps.mu.Unlock()
}

// be.mu is released on only one path; on the other it is still held
// when ps.mu is acquired.
func invertedOnOnePath(ps *proxySession, be *backend, flag bool) {
	be.mu.Lock()
	if flag {
		be.mu.Unlock()
		return
	}
	ps.mu.Lock() // want `acquiring proxySession\.mu while backend\.mu is held inverts the documented`
	ps.mu.Unlock()
	be.mu.Unlock()
}

// Same contract for the membership pair: memberMu before the fleet's mu.
func invertedGateway(gw *Gateway) {
	gw.fleet.mu.Lock()
	gw.memberMu.Lock() // want `acquiring Gateway\.memberMu while fleet\.mu is held inverts the documented`
	gw.memberMu.Unlock()
	gw.fleet.mu.Unlock()
}
