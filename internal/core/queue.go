package core

import "spmvtune/internal/hsa"

// QueuedDispatch re-costs total — the summed stats of `launches` kernels
// dispatched one after another (SimulateBinned over that many non-empty
// bins) — as if they had gone through one HSA user-mode queue: the host pays
// the full launch synchronization once, every further kernel is an AQL
// packet write (QueueDispatchCycles), and the device drains the queue
// back-to-back. This is the HSA/SNACK feature the paper's platform section
// highlights; it removes most of the per-bin dispatch penalty on matrices
// with several populated bins. The device work (every field but Cycles and
// Seconds) is the sequential run's: dispatch is a cost rule, not a second
// execution.
func QueuedDispatch(dev hsa.Config, total hsa.Stats, launches int) hsa.Stats {
	if launches <= 0 {
		return total
	}
	dispatch := dev.KernelLaunchCycles + float64(launches-1)*dev.QueueDispatchCycles
	total.Cycles = total.ExecCycles + dispatch
	total.Seconds = total.Cycles / dev.ClockHz
	return total
}
