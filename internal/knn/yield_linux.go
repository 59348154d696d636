package knn

import "syscall"

// osYield offers the OS thread's core to any other thread the kernel has
// waiting for it and returns at once when there is none. A polling helper
// calls it between looks at jobSlot: on a core it has to itself it costs a
// system call, and on one it shares — another process on the host — the
// thread it shares it with runs instead of the spin. The goroutine keeps
// its P and stays off Go's run queues, unlike runtime.Gosched.
func osYield() { syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }
