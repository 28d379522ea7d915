package tier

// Has reports whether any entry exists for (name, version): how the
// tests of this package see what a spill, a promote or an attach left
// in the manifest (internal/staging's tests ask HasName).
func (t *Tier) Has(name string, version int64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byName[name][version]) > 0
}
