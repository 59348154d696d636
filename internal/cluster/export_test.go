package cluster

// MaxIdleLegWorkers exports the bound on parked leg workers to the tests.
const MaxIdleLegWorkers = maxIdleLegWorkers

// IdleLegWorkers is how many leg workers r has parked.
func IdleLegWorkers(r *Router) int { return int(r.legs.idle.Load()) }
