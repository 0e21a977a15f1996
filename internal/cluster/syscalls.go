package cluster

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"

	"mpifault/internal/abi"
	"mpifault/internal/mpi"
	"mpifault/internal/vm"
)

// fileStore collects named output files.  All three workloads write their
// results from rank 0, but any rank may: one executes at a time.
type fileStore struct {
	files map[string][]byte
	names []string // fd - FdFileBase -> name
}

func (fs *fileStore) open(name string) int32 {
	fs.names = append(fs.names, name)
	if _, ok := fs.files[name]; !ok {
		fs.files[name] = nil
	}
	return abi.FdFileBase + int32(len(fs.names)-1)
}

// openAs opens name if that hands out fd; false changes nothing.
func (fs *fileStore) openAs(name string, fd int32) bool {
	if abi.FdFileBase+int32(len(fs.names)) != fd {
		return false
	}
	fs.open(name)
	return true
}

func (fs *fileStore) write(fd int32, b []byte) bool {
	i := int(fd - abi.FdFileBase)
	if i < 0 || i >= len(fs.names) {
		return false
	}
	name := fs.names[i]
	fs.files[name] = append(fs.files[name], b...)
	return true
}

// rankIO is the per-rank syscall handler: console and file I/O, the guest
// malloc/free entry points, and the dispatch into the MPI runtime.
type rankIO struct {
	proc   *mpi.Proc
	files  *fileStore
	stdout []byte
	stderr []byte
}

var _ vm.SyscallHandler = (*rankIO)(nil)

// appendSignalBanner emulates MPICH's signal handler, which prints an
// error to stderr on abnormal termination — the marker the paper's
// harness greps for to classify Crashes.
func (io *rankIO) appendSignalBanner(t *vm.Trap) []byte {
	if t == nil {
		return io.stderr
	}
	switch t.Kind {
	case vm.TrapSegv, vm.TrapIll, vm.TrapFpe:
		banner := fmt.Sprintf("p4_error: interrupt %s: pc=0x%08x addr=0x%08x\n",
			t.Kind, t.PC, t.Addr)
		return append(io.stderr, banner...)
	case vm.TrapMPIFatal:
		banner := fmt.Sprintf("MPI process aborted: %s\n", t.Msg)
		return append(io.stderr, banner...)
	case vm.TrapMPIHandler:
		banner := fmt.Sprintf("user error handler invoked: %s\n", t.Msg)
		return append(io.stderr, banner...)
	}
	return io.stderr
}

// writeFd appends b to the console capture or the named file behind fd.
// Every write is an output on the rank's tape — the console too, which is
// stricter than classification needs and never wrong — so a replaying
// rank writes nothing.
func (io *rankIO) writeFd(m *vm.Machine, fd int32, b []byte) *vm.Trap {
	if live, t := io.proc.TapeOutput(m, mpi.TapeWrite, fd, b); !live {
		return t
	}
	if !io.write(fd, b) {
		return &vm.Trap{Kind: vm.TrapSegv, PC: m.PC, Msg: "write to bad fd"}
	}
	return nil
}

// write performs writeFd's append; false for a bad fd.
func (io *rankIO) write(fd int32, b []byte) bool {
	switch fd {
	case abi.FdStdout:
		io.stdout = append(io.stdout, b...)
	case abi.FdStderr:
		io.stderr = append(io.stderr, b...)
	default:
		return io.files.write(fd, b)
	}
	return true
}

// Syscall implements vm.SyscallHandler.
func (io *rankIO) Syscall(m *vm.Machine, num int32) *vm.Trap {
	switch num {
	case abi.SysExit:
		return &vm.Trap{Kind: vm.TrapExit, PC: m.PC, Code: int32(m.Regs[0])}

	case abi.SysAbort:
		// The guest runtime prints its diagnostic *before* calling abort;
		// the harness classifies this as Application Detected.
		return &vm.Trap{Kind: vm.TrapAbort, PC: m.PC, Code: int32(m.Regs[0]),
			Msg: "application abort"}

	case abi.SysWrite, abi.SysWriteBin:
		fd, addr, n := int32(m.Regs[0]), m.Regs[1], m.Regs[2]
		if n > 1<<24 {
			return &vm.Trap{Kind: vm.TrapSegv, PC: m.PC, Addr: addr, Msg: "oversized write"}
		}
		b, t := m.ReadBytes(addr, int(n))
		if t != nil {
			return t
		}
		return io.writeFd(m, fd, b)

	case abi.SysOpen:
		addr, n := m.Regs[0], m.Regs[1]
		if n > 4096 {
			return &vm.Trap{Kind: vm.TrapSegv, PC: m.PC, Addr: addr, Msg: "oversized filename"}
		}
		b, t := m.ReadBytes(addr, int(n))
		if t != nil {
			return t
		}
		// The fd depends on what other ranks opened before: a tape input.
		fd, t := io.proc.TapeInput(m, mpi.TapeOpen, 0, b, func() int32 { return io.files.open(string(b)) })
		m.Regs[0] = uint32(fd)
		return t

	case abi.SysWriteInt:
		fd, v := int32(m.Regs[0]), int32(m.Regs[1])
		return io.writeFd(m, fd, []byte(strconv.FormatInt(int64(v), 10)))

	case abi.SysWriteF64:
		fd, addr, prec := int32(m.Regs[0]), m.Regs[1], int(int32(m.Regs[2]))
		v, t := m.LoadF64(addr)
		if t != nil {
			return t
		}
		return io.writeFd(m, fd, formatF64(nil, v, prec))

	case abi.SysWriteF64Arr:
		fd, addr, count, prec := int32(m.Regs[0]), m.Regs[1], m.Regs[2], int(int32(m.Regs[3]))
		if count > 1<<22 {
			return &vm.Trap{Kind: vm.TrapSegv, PC: m.PC, Addr: addr, Msg: "oversized array write"}
		}
		var buf []byte
		for i := uint32(0); i < count; i++ {
			v, t := m.LoadF64(addr + 8*i)
			if t != nil {
				return t
			}
			buf = append(formatF64(buf, v, prec), '\n')
		}
		return io.writeFd(m, fd, buf)

	case abi.SysMalloc:
		m.Regs[0] = m.Heap.Alloc(m.Regs[0], abi.ChunkUser)
		return nil

	case abi.SysFree:
		return m.Heap.Free(m.Regs[0])

	case abi.SysClock:
		m.Regs[0] = uint32(m.Instrs)
		return nil
	}

	return io.mpiCall(m, num)
}

// mpiCall fetches an MPI call's arguments, as many as abi.MPICalls says
// its stub passes and in order (so on a corrupted sp the first stack
// load that faults is the trap), then dispatches to the API layer.
func (io *rankIO) mpiCall(m *vm.Machine, num int32) *vm.Trap {
	var a [abi.MaxMPIArgs]uint32
	for i := range abi.MPIArgs(num) {
		v, t := m.Arg(i)
		if t != nil {
			return t
		}
		a[i] = v
	}
	p := io.proc
	switch num {
	case abi.SysMPIInit:
		return p.Init(m)

	case abi.SysMPIFinalize:
		return p.Finalize(m)

	case abi.SysMPICommRank, abi.SysMPICommSize:
		get := p.CommRank
		if num == abi.SysMPICommSize {
			get = p.CommSize
		}
		r, t := get(m, int32(a[0]))
		if t != nil {
			return t
		}
		m.Regs[0] = uint32(r)
		return nil

	case abi.SysMPIErrhandlerSet:
		return p.ErrhandlerSet(m, int32(a[0]), a[1])

	case abi.SysMPIWtime:
		// Virtual time: one nanosecond per retired instruction.
		return m.StoreF64(a[0], float64(m.Instrs)*1e-9)

	case abi.SysMPISend:
		return p.Send(m, a[0], int32(a[1]), int32(a[2]), int32(a[3]), int32(a[4]), int32(a[5]))

	case abi.SysMPIRecv:
		return p.Recv(m, a[0], int32(a[1]), int32(a[2]), int32(a[3]), int32(a[4]), int32(a[5]), a[6])

	case abi.SysMPIBarrier:
		return p.Barrier(m, int32(a[0]))

	case abi.SysMPIBcast:
		return p.Bcast(m, a[0], int32(a[1]), int32(a[2]), int32(a[3]), int32(a[4]))

	case abi.SysMPIReduce:
		return p.Reduce(m, a[0], a[1], int32(a[2]), int32(a[3]), int32(a[4]), int32(a[5]), int32(a[6]))

	case abi.SysMPIAllreduce:
		return p.Allreduce(m, a[0], a[1], int32(a[2]), int32(a[3]), int32(a[4]), int32(a[5]))

	case abi.SysMPIGather:
		return p.Gather(m, a[0], int32(a[1]), int32(a[2]), a[3], int32(a[4]), int32(a[5]))

	case abi.SysMPIAllgather:
		return p.Allgather(m, a[0], int32(a[1]), int32(a[2]), a[3], int32(a[4]))

	case abi.SysMPIScatter:
		return p.Scatter(m, a[0], int32(a[1]), int32(a[2]), a[3], int32(a[4]), int32(a[5]))

	case abi.SysMPIAlltoall:
		return p.Alltoall(m, a[0], int32(a[1]), int32(a[2]), a[3], int32(a[4]))

	case abi.SysMPIIsend, abi.SysMPIIrecv:
		start := p.Isend
		if num == abi.SysMPIIrecv {
			start = p.Irecv
		}
		id, t := start(m, a[0], int32(a[1]), int32(a[2]), int32(a[3]), int32(a[4]), int32(a[5]))
		if t != nil {
			return t
		}
		return m.Store32(a[6], uint32(id))

	case abi.SysMPIWait:
		id, t := m.Load32(a[0])
		if t != nil {
			return t
		}
		return p.Wait(m, int32(id), a[1])

	case abi.SysMPIWaitall:
		return p.Waitall(m, int32(a[0]), a[1], a[2])

	case abi.SysMPISendrecv:
		return p.Sendrecv(m, a[0], int32(a[1]), int32(a[2]), int32(a[3]), int32(a[4]),
			a[5], int32(a[6]), int32(a[7]), int32(a[8]), int32(a[9]), a[10])

	case abi.SysMPICommSplit:
		h, t := p.CommSplit(m, int32(a[0]), int32(a[1]), int32(a[2]))
		if t != nil {
			return t
		}
		return m.Store32(a[3], uint32(h))

	case abi.SysMPICommDup:
		h, t := p.CommDup(m, int32(a[0]))
		if t != nil {
			return t
		}
		return m.Store32(a[1], uint32(h))
	}

	// An unknown syscall number — most plausibly a corrupted SYS
	// immediate — faults like a bad instruction.
	return &vm.Trap{Kind: vm.TrapIll, PC: m.PC,
		Msg: fmt.Sprintf("unknown syscall %d", num)}
}

// formatF64 appends v in fixed-point notation with prec decimals, the
// plain-text output format whose precision loss masks low-order-bit
// corruption in Cactus Wavetoy (§6.2).  The bytes are those of
// strconv.AppendFloat(dst, v, 'f', prec, 64), which for 'f' always takes
// strconv's multiprecision path; guest output is written after the
// injection, where no checkpoint can skip it, so values inside
// fixedF64's range are rounded in 128-bit integer arithmetic instead.
func formatF64(dst []byte, v float64, prec int) []byte {
	if prec < 0 {
		prec = 17 // shortest round-trip would differ run to run; use max
	}
	q, ok := fixedF64(v, prec)
	if !ok {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	if math.Signbit(v) {
		dst = append(dst, '-') // strconv keeps the sign of a value that rounds to zero
	}
	dst = strconv.AppendUint(dst, q/pow10[prec], 10)
	if prec == 0 {
		return dst
	}
	dst = append(dst, '.')
	dst = append(dst, "00000000000000000"[:prec]...)
	for i, f := len(dst)-1, q%pow10[prec]; f != 0; i, f = i-1, f/10 {
		dst[i] = byte('0' + f%10)
	}
	return dst
}

// pow10[p] = 10^p for the precisions fixedF64 handles.
var pow10 = func() (t [18]uint64) {
	t[0] = 1
	for p := 1; p < len(t); p++ {
		t[p] = 10 * t[p-1]
	}
	return
}()

// fixedF64 returns |v|·10^prec rounded half-to-even to an integer — the
// digits of v's fixed-point rendering — when that is exact and cheap:
// v = mant·2^-k with k ≥ 1 (|v| < 2^52), prec ≤ 17 and a result below
// 2^64.  The product P = mant·10^prec < 2^53·2^57 is held exactly in 128
// bits, so the quotient P>>k and the tie test on the bits shifted out
// are exact, which is the rounding strconv performs on the exact decimal.
func fixedF64(v float64, prec int) (q uint64, ok bool) {
	b := math.Float64bits(v)
	exp, mant := int(b>>52&0x7ff), b&(1<<52-1)
	if exp >= 1075 || prec >= len(pow10) {
		return 0, false // |v| ≥ 2^52, NaN, ±Inf, or a precision only a fault asks for
	}
	if exp == 0 {
		exp = 1 // subnormal
	} else {
		mant |= 1 << 52
	}
	k := uint(1075 - exp)
	hi, lo := bits.Mul64(mant, pow10[prec])
	// half is the first bit shifted out, sticky whether any lower is set.
	var half uint64
	var sticky bool
	switch {
	case k > 110: // P < 2^110 ≤ 2^(k-1): rounds to zero
		return 0, true
	case k > 64:
		q, half = hi>>(k-64), hi>>(k-65)&1
		sticky = hi&(1<<(k-65)-1) != 0 || lo != 0
	case k == 64:
		q, half, sticky = hi, lo>>63, lo<<1 != 0
	default:
		if hi>>k != 0 {
			return 0, false // integer part needs more than 64 bits
		}
		q, half = hi<<(64-k)|lo>>k, lo>>(k-1)&1
		sticky = lo&(1<<(k-1)-1) != 0
	}
	if half == 1 && (sticky || q&1 == 1) {
		if q == math.MaxUint64 {
			return 0, false
		}
		q++
	}
	return q, true
}
