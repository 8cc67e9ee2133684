package backend

// Exec runs one packet transaction of cfg over name-keyed maps, through
// cfg's slice executor. Every input key is copied to the output, so keys
// that are not among cfg's variables pass through unchanged; variables
// missing from the input read as zero. The input maps are not modified.
func Exec(cfg Config, pkt, state map[string]uint64) (outPkt, outState map[string]uint64) {
	fields, states := cfg.Vars()
	fv := make([]uint64, len(fields))
	for i, f := range fields {
		fv[i] = pkt[f]
	}
	sv := make([]uint64, len(states))
	for i, s := range states {
		sv[i] = state[s]
	}
	cfg.NewExecutor()(fv, sv)
	return withValues(pkt, fields, fv), withValues(state, states, sv)
}

// withValues returns a copy of m with names[i] set to vals[i].
func withValues(m map[string]uint64, names []string, vals []uint64) map[string]uint64 {
	out := make(map[string]uint64, len(m)+len(names))
	for k, v := range m {
		out[k] = v
	}
	for i, n := range names {
		out[n] = vals[i]
	}
	return out
}
