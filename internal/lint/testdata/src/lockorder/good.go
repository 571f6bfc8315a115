// Clean twins: correct nesting and the shapes the gateway actually
// uses, which lockorder must accept without a diagnostic.
package lockorder

// Documented order: ps.mu first, be.mu inside it.
func okNested(ps *proxySession, be *backend) {
	ps.mu.Lock()
	be.mu.Lock()
	be.mu.Unlock()
	ps.mu.Unlock()
}

// Sequential, never nested: no ordering constraint applies.
func okSequential(ps *proxySession, be *backend) {
	be.mu.Lock()
	be.mu.Unlock()
	ps.mu.Lock()
	ps.mu.Unlock()
}

// Every branch releases be.mu before ps.mu is taken; the join keeps only
// locks held on all paths, so no false positive.
func okBranchRelease(ps *proxySession, be *backend, flag bool) {
	be.mu.Lock()
	if flag {
		be.mu.Unlock()
	} else {
		be.mu.Unlock()
	}
	ps.mu.Lock()
	ps.mu.Unlock()
}

// The annotation names the lock the caller holds; acquiring the second
// lock of the documented pair inside is the correct direction.
//
//lint:holds proxySession.mu
func okAnnotated(be *backend) {
	be.mu.Lock()
	be.mu.Unlock()
}

// memberMu before the fleet's mu is the documented membership order.
func okGateway(gw *Gateway) {
	gw.memberMu.Lock()
	gw.fleet.mu.Lock()
	gw.fleet.mu.Unlock()
	gw.memberMu.Unlock()
}
