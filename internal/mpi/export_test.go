package mpi

// SlotReleases reports how many rendezvous slots the supervisor released
// to the message algorithms during the run.
func SlotReleases(res RunResult) int64 { return res.slotReleases }
