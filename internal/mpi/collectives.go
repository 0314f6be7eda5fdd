package mpi

// This file implements the collective algorithms on top of point-to-point
// messaging: dissemination barrier, binomial-tree broadcast and reduce,
// recursive-doubling allreduce, linear scatter/gather, ring allgather,
// pairwise-exchange alltoall(/v), reduce_scatter and linear scan. Barrier,
// Bcast, Allreduce and Allgather first try the shared-memory rendezvous
// (rendezvous.go), which completes them without messages when every rank
// agrees and otherwise hands them back to the algorithm here unchanged.
//
// Every algorithm consumes the (possibly injector-mutated) Args fields of
// its own rank only, so a corrupted parameter on one rank derails the
// message schedule exactly as it would in a real MPI library: truncation
// errors, stray reads of heap garbage, buffer overruns, garbage
// reductions, or deadlock. Buffer traffic goes through the heap-slack
// ReadAt/WriteAt model (see buffer.go), which decides whether a corrupted
// size is a silent overread, an oversized message or a crash.

// recvBlock receives an internal collective message and applies MPI's
// truncation rule: an incoming message longer than the posted receive is an
// error (MPI_ERR_TRUNCATE); a shorter one is accepted as-is. The caller
// owns the returned message and recycles its pooled payload once the data
// has been consumed.
func (r *Rank) recvBlock(op string, comm Comm, src int, tag int64, want int) message {
	m := r.recvMatch(comm, src, tag)
	if len(m.data) > want {
		abortf(r.id, op, ErrTruncate, "message of %d bytes truncated to receive of %d bytes", len(m.data), want)
	}
	return m
}

// padTo zero-extends data to n bytes, modelling the heap garbage a real
// reduction reads when an incoming message is shorter than count elements.
func padTo(data []byte, n int) []byte {
	if len(data) >= n {
		return data
	}
	out := make([]byte, n)
	copy(out, data)
	return out
}

// validateCommon performs the argument validation a production MPI library
// applies on entry to a collective: negative counts, null handles and
// out-of-range roots are reported as MPI errors. Non-null corrupted
// datatype/op handles are deliberately NOT validated — they are dereferenced
// later like the pointers they are in real implementations, and crash.
func validateCommon(rank int, op string, a *Args, ci *commInfo, needDtype, needOp, rooted bool) {
	if needDtype {
		if a.Count < 0 {
			abortf(rank, op, ErrCount, "negative count %d", a.Count)
		}
		checkDtype(rank, op, a.Dtype)
	}
	if needOp {
		checkOp(rank, op, a.Op)
	}
	if rooted && (a.Root < 0 || int(a.Root) >= len(ci.members)) {
		abortf(rank, op, ErrRoot, "root %d outside communicator of size %d", a.Root, len(ci.members))
	}
}

// Barrier blocks until every rank of comm has entered it (dissemination
// algorithm).
func (r *Rank) Barrier(comm Comm) {
	if r.replayActive() {
		r.replayCollective(CollBarrier, nil, nil, comm)
		return
	}
	args := r.newArgs(Args{Comm: comm})
	call := r.beginCollective(CollBarrier, args)
	ci := r.commDeref(args.Comm)
	me := ci.rankOf[r.id]
	size := len(ci.members)
	seq := r.nextSeq(args.Comm)
	if r.rendezvous(call, ci, seq) {
		r.endCollective(call)
		return
	}
	round := 0
	for mask := 1; mask < size; mask <<= 1 {
		dst := (me + mask) % size
		src := (me - mask + size) % size
		r.sendRaw(ci, args.Comm, dst, internalTag(seq, round), nil)
		m := r.recvMatch(args.Comm, src, internalTag(seq, round))
		m.recycle()
		round++
	}
	r.endCollective(call)
}

// Bcast broadcasts count elements of dt from root's buf into every other
// rank's buf (binomial tree).
func (r *Rank) Bcast(buf *Buffer, count int, dt Datatype, root int, comm Comm) {
	if r.replayActive() {
		r.replayCollective(CollBcast, buf, nil, comm)
		return
	}
	args := r.newArgs(Args{Send: buf, Count: int32(count), Dtype: dt, Root: int32(root), Comm: comm})
	call := r.beginCollective(CollBcast, args)
	const op = "MPI_Bcast"
	ci := r.commDeref(args.Comm)
	validateCommon(r.id, op, args, ci, true, false, true)
	me := ci.rankOf[r.id]
	size := len(ci.members)
	seq := r.nextSeq(args.Comm)
	if r.rendezvous(call, ci, seq) {
		r.endCollective(call)
		return
	}

	nbytes := int(args.Count) * args.Dtype.Size()
	vrank := (me - int(args.Root) + size) % size

	mask := 1
	for mask < size {
		if vrank&mask != 0 {
			parent := ((vrank-mask)%size + int(args.Root)) % size
			m := r.recvBlock(op, args.Comm, parent, internalTag(seq, 0), nbytes)
			args.Send.WriteAt(op+" recv", 0, m.data)
			m.recycle()
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vrank+mask < size {
			child := (vrank + mask + int(args.Root)) % size
			payload := args.Send.ReadAt(op+" send", 0, nbytes)
			r.sendRaw(ci, args.Comm, child, internalTag(seq, 0), payload)
		}
	}
	r.endCollective(call)
}

// Reduce combines count elements of dt from every rank's send buffer with
// op, leaving the result in root's recv buffer (binomial tree).
func (r *Rank) Reduce(send, recv *Buffer, count int, dt Datatype, op Op, root int, comm Comm) {
	if r.replayActive() {
		r.replayCollective(CollReduce, send, recv, comm)
		return
	}
	args := r.newArgs(Args{Send: send, Recv: recv, Count: int32(count), Dtype: dt, Op: op, Root: int32(root), Comm: comm})
	call := r.beginCollective(CollReduce, args)
	const opName = "MPI_Reduce"
	ci := r.commDeref(args.Comm)
	validateCommon(r.id, opName, args, ci, true, true, true)
	me := ci.rankOf[r.id]
	size := len(ci.members)
	seq := r.nextSeq(args.Comm)

	nbytes := int(args.Count) * args.Dtype.Size()
	src := args.Send.ReadAt(opName+" send", 0, nbytes)
	acc, accSlab := r.scratch(nbytes)
	copy(acc, src)

	vrank := (me - int(args.Root) + size) % size
	for mask := 1; mask < size; mask <<= 1 {
		if vrank&mask == 0 {
			srcV := vrank | mask
			if srcV < size {
				from := (srcV + int(args.Root)) % size
				m := r.recvBlock(opName, args.Comm, from, internalTag(seq, 0), nbytes)
				combine(args.Op, args.Dtype, acc, padTo(m.data, nbytes), int(args.Count))
				m.recycle()
			}
		} else {
			dstV := vrank - mask
			dst := (dstV + int(args.Root)) % size
			r.sendRaw(ci, args.Comm, dst, internalTag(seq, 0), acc)
			break
		}
	}
	if vrank == 0 {
		args.Recv.WriteAt(opName+" recv", 0, acc)
	}
	putSlab(accSlab)
	r.endCollective(call)
}

// Allreduce combines count elements with op and leaves the result in every
// rank's recv buffer. Power-of-two communicators use recursive doubling;
// others fall back to reduce-to-zero plus broadcast.
func (r *Rank) Allreduce(send, recv *Buffer, count int, dt Datatype, op Op, comm Comm) {
	if r.replayActive() {
		r.replayCollective(CollAllreduce, send, recv, comm)
		return
	}
	args := r.newArgs(Args{Send: send, Recv: recv, Count: int32(count), Dtype: dt, Op: op, Comm: comm})
	call := r.beginCollective(CollAllreduce, args)
	const opName = "MPI_Allreduce"
	ci := r.commDeref(args.Comm)
	validateCommon(r.id, opName, args, ci, true, true, false)
	me := ci.rankOf[r.id]
	size := len(ci.members)
	seq := r.nextSeq(args.Comm)
	if r.rendezvous(call, ci, seq) {
		r.endCollective(call)
		return
	}

	nbytes := int(args.Count) * args.Dtype.Size()
	src := args.Send.ReadAt(opName+" send", 0, nbytes)
	acc, accSlab := r.scratch(nbytes)
	copy(acc, src)

	if size&(size-1) == 0 {
		// recursive doubling
		round := 0
		for mask := 1; mask < size; mask <<= 1 {
			partner := me ^ mask
			r.sendRaw(ci, args.Comm, partner, internalTag(seq, round), acc)
			m := r.recvBlock(opName, args.Comm, partner, internalTag(seq, round), nbytes)
			combine(args.Op, args.Dtype, acc, padTo(m.data, nbytes), int(args.Count))
			m.recycle()
			round++
		}
	} else {
		// reduce to rank 0, then binomial broadcast
		for mask := 1; mask < size; mask <<= 1 {
			if me&mask == 0 {
				from := me | mask
				if from < size {
					m := r.recvBlock(opName, args.Comm, from, internalTag(seq, 200), nbytes)
					combine(args.Op, args.Dtype, acc, padTo(m.data, nbytes), int(args.Count))
					m.recycle()
				}
			} else {
				r.sendRaw(ci, args.Comm, me-mask, internalTag(seq, 200), acc)
				break
			}
		}
		mask := 1
		for mask < size {
			if me&mask != 0 {
				m := r.recvBlock(opName, args.Comm, me-mask, internalTag(seq, 201), nbytes)
				copy(acc, padTo(m.data, nbytes))
				m.recycle()
				break
			}
			mask <<= 1
		}
		for mask >>= 1; mask > 0; mask >>= 1 {
			if me+mask < size {
				r.sendRaw(ci, args.Comm, me+mask, internalTag(seq, 201), acc)
			}
		}
	}
	args.Recv.WriteAt(opName+" recv", 0, acc)
	putSlab(accSlab)
	r.endCollective(call)
}

// Scatter distributes consecutive count-element blocks of root's send
// buffer to the ranks' recv buffers (linear from root).
func (r *Rank) Scatter(send, recv *Buffer, count int, dt Datatype, root int, comm Comm) {
	if r.replayActive() {
		r.replayCollective(CollScatter, send, recv, comm)
		return
	}
	args := r.newArgs(Args{Send: send, Recv: recv, Count: int32(count), Dtype: dt, Root: int32(root), Comm: comm})
	call := r.beginCollective(CollScatter, args)
	const op = "MPI_Scatter"
	ci := r.commDeref(args.Comm)
	validateCommon(r.id, op, args, ci, true, false, true)
	me := ci.rankOf[r.id]
	size := len(ci.members)
	seq := r.nextSeq(args.Comm)

	blk := int(args.Count) * args.Dtype.Size()
	if me == int(args.Root) {
		for p := 0; p < size; p++ {
			src := args.Send.ReadAt(op+" send", p*blk, blk)
			if p == me {
				args.Recv.WriteAt(op+" recv", 0, src)
			} else {
				r.sendRaw(ci, args.Comm, p, internalTag(seq, 0), src)
			}
		}
	} else {
		m := r.recvBlock(op, args.Comm, int(args.Root), internalTag(seq, 0), blk)
		args.Recv.WriteAt(op+" recv", 0, m.data)
		m.recycle()
	}
	r.endCollective(call)
}

// Gather collects count-element blocks from every rank's send buffer into
// consecutive blocks of root's recv buffer (linear to root).
func (r *Rank) Gather(send, recv *Buffer, count int, dt Datatype, root int, comm Comm) {
	if r.replayActive() {
		r.replayCollective(CollGather, send, recv, comm)
		return
	}
	args := r.newArgs(Args{Send: send, Recv: recv, Count: int32(count), Dtype: dt, Root: int32(root), Comm: comm})
	call := r.beginCollective(CollGather, args)
	const op = "MPI_Gather"
	ci := r.commDeref(args.Comm)
	validateCommon(r.id, op, args, ci, true, false, true)
	me := ci.rankOf[r.id]
	size := len(ci.members)
	seq := r.nextSeq(args.Comm)

	blk := int(args.Count) * args.Dtype.Size()
	if me == int(args.Root) {
		for p := 0; p < size; p++ {
			if p == me {
				args.Recv.WriteAt(op+" recv", p*blk, args.Send.ReadAt(op+" send", 0, blk))
			} else {
				m := r.recvBlock(op, args.Comm, p, internalTag(seq, 0), blk)
				args.Recv.WriteAt(op+" recv", p*blk, m.data)
				m.recycle()
			}
		}
	} else {
		payload := args.Send.ReadAt(op+" send", 0, blk)
		r.sendRaw(ci, args.Comm, int(args.Root), internalTag(seq, 0), payload)
	}
	r.endCollective(call)
}

// Allgather collects every rank's count-element send block into every
// rank's recv buffer (ring algorithm).
func (r *Rank) Allgather(send, recv *Buffer, count int, dt Datatype, comm Comm) {
	if r.replayActive() {
		r.replayCollective(CollAllgather, send, recv, comm)
		return
	}
	args := r.newArgs(Args{Send: send, Recv: recv, Count: int32(count), Dtype: dt, Comm: comm})
	call := r.beginCollective(CollAllgather, args)
	const op = "MPI_Allgather"
	ci := r.commDeref(args.Comm)
	validateCommon(r.id, op, args, ci, true, false, false)
	me := ci.rankOf[r.id]
	size := len(ci.members)
	seq := r.nextSeq(args.Comm)
	if r.rendezvous(call, ci, seq) {
		r.endCollective(call)
		return
	}

	blk := int(args.Count) * args.Dtype.Size()
	args.Recv.WriteAt(op+" recv own", me*blk, args.Send.ReadAt(op+" send", 0, blk))

	right := (me + 1) % size
	left := (me - 1 + size) % size
	cur := me
	for step := 0; step < size-1; step++ {
		payload := args.Recv.ReadAt(op+" forward", cur*blk, blk)
		r.sendRaw(ci, args.Comm, right, internalTag(seq, step), payload)
		cur = (cur - 1 + size) % size
		m := r.recvBlock(op, args.Comm, left, internalTag(seq, step), blk)
		args.Recv.WriteAt(op+" recv", cur*blk, m.data)
		m.recycle()
	}
	r.endCollective(call)
}

// Alltoall exchanges count-element blocks between every pair of ranks
// (pairwise exchange).
func (r *Rank) Alltoall(send, recv *Buffer, count int, dt Datatype, comm Comm) {
	if r.replayActive() {
		r.replayCollective(CollAlltoall, send, recv, comm)
		return
	}
	args := r.newArgs(Args{Send: send, Recv: recv, Count: int32(count), Dtype: dt, Comm: comm})
	call := r.beginCollective(CollAlltoall, args)
	const op = "MPI_Alltoall"
	ci := r.commDeref(args.Comm)
	validateCommon(r.id, op, args, ci, true, false, false)
	me := ci.rankOf[r.id]
	size := len(ci.members)
	seq := r.nextSeq(args.Comm)

	blk := int(args.Count) * args.Dtype.Size()
	for step := 0; step < size; step++ {
		dst := (me + step) % size
		src := (me - step + size) % size
		if dst == me {
			args.Recv.WriteAt(op+" recv self", me*blk, args.Send.ReadAt(op+" send self", me*blk, blk))
			continue
		}
		payload := args.Send.ReadAt(op+" send", dst*blk, blk)
		r.sendRaw(ci, args.Comm, dst, internalTag(seq, step), payload)
		m := r.recvBlock(op, args.Comm, src, internalTag(seq, step), blk)
		args.Recv.WriteAt(op+" recv", src*blk, m.data)
		m.recycle()
	}
	r.endCollective(call)
}

// Alltoallv exchanges variable-sized blocks between every pair of ranks.
// Counts and displacements are in elements of dt.
func (r *Rank) Alltoallv(send *Buffer, sendCounts, sendDispls []int32, recv *Buffer, recvCounts, recvDispls []int32, dt Datatype, comm Comm) {
	if r.replayActive() {
		r.replayCollective(CollAlltoallv, send, recv, comm)
		return
	}
	args := r.newArgs(Args{
		Send: send, Recv: recv, Dtype: dt, Comm: comm,
		SendCounts: sendCounts, SendDispls: sendDispls,
		RecvCounts: recvCounts, RecvDispls: recvDispls,
	})
	call := r.beginCollective(CollAlltoallv, args)
	const op = "MPI_Alltoallv"
	ci := r.commDeref(args.Comm)
	checkDtype(r.id, op, args.Dtype)
	me := ci.rankOf[r.id]
	size := len(ci.members)
	seq := r.nextSeq(args.Comm)
	esz := args.Dtype.Size()

	// Count vectors are indexed per peer with no bounds validation (a real
	// MPI library trusts the caller's arrays); corrupted vectors therefore
	// produce MPI_ERR_COUNT, truncation, overruns or deadlock.
	cnt := func(v []int32, p int) int {
		c := int(v[p])
		if c < 0 {
			abortf(r.id, op, ErrCount, "negative count %d for peer %d", c, p)
		}
		return c
	}
	for step := 0; step < size; step++ {
		dst := (me + step) % size
		src := (me - step + size) % size
		if dst == me {
			n := cnt(args.SendCounts, me) * esz
			data := args.Send.ReadAt(op+" send self", int(args.SendDispls[me])*esz, n)
			want := cnt(args.RecvCounts, me) * esz
			if n > want {
				abortf(r.id, op, ErrTruncate, "self message of %d bytes truncated to %d", n, want)
			}
			args.Recv.WriteAt(op+" recv self", int(args.RecvDispls[me])*esz, data)
			continue
		}
		n := cnt(args.SendCounts, dst) * esz
		payload := args.Send.ReadAt(op+" send", int(args.SendDispls[dst])*esz, n)
		r.sendRaw(ci, args.Comm, dst, internalTag(seq, step), payload)
		want := cnt(args.RecvCounts, src) * esz
		m := r.recvBlock(op, args.Comm, src, internalTag(seq, step), want)
		args.Recv.WriteAt(op+" recv", int(args.RecvDispls[src])*esz, m.data)
		m.recycle()
	}
	r.endCollective(call)
}

// ReduceScatter reduces element-wise across ranks and scatters segment i
// (counts[i] elements) to rank i. Implemented as reduce-to-zero followed by
// a linear scatterv.
func (r *Rank) ReduceScatter(send, recv *Buffer, counts []int32, dt Datatype, op Op, comm Comm) {
	if r.replayActive() {
		r.replayCollective(CollReduceScatter, send, recv, comm)
		return
	}
	args := r.newArgs(Args{Send: send, Recv: recv, Dtype: dt, Op: op, Comm: comm, RecvCounts: counts})
	call := r.beginCollective(CollReduceScatter, args)
	const opName = "MPI_Reduce_scatter"
	ci := r.commDeref(args.Comm)
	checkDtype(r.id, opName, args.Dtype)
	checkOp(r.id, opName, args.Op)
	me := ci.rankOf[r.id]
	size := len(ci.members)
	seq := r.nextSeq(args.Comm)
	esz := args.Dtype.Size()

	total := 0
	for p := 0; p < size; p++ {
		c := int(args.RecvCounts[p])
		if c < 0 {
			abortf(r.id, opName, ErrCount, "negative count %d for segment %d", c, p)
		}
		total += c
	}
	nbytes := total * esz
	src := args.Send.ReadAt(opName+" send", 0, nbytes)
	acc, accSlab := r.scratch(nbytes)
	copy(acc, src)

	for mask := 1; mask < size; mask <<= 1 {
		if me&mask == 0 {
			from := me | mask
			if from < size {
				m := r.recvBlock(opName, args.Comm, from, internalTag(seq, 0), nbytes)
				combine(args.Op, args.Dtype, acc, padTo(m.data, nbytes), total)
				m.recycle()
			}
		} else {
			r.sendRaw(ci, args.Comm, me-mask, internalTag(seq, 0), acc)
			break
		}
	}
	if me == 0 {
		off := 0
		for p := 0; p < size; p++ {
			n := int(args.RecvCounts[p]) * esz
			if p == 0 {
				args.Recv.WriteAt(opName+" recv", 0, acc[off:off+n])
			} else {
				r.sendRaw(ci, args.Comm, p, internalTag(seq, 1), acc[off:off+n])
			}
			off += n
		}
	} else {
		want := int(args.RecvCounts[me]) * esz
		m := r.recvBlock(opName, args.Comm, 0, internalTag(seq, 1), want)
		args.Recv.WriteAt(opName+" recv", 0, m.data)
		m.recycle()
	}
	putSlab(accSlab)
	r.endCollective(call)
}

// Scan computes an inclusive prefix reduction: rank i's recv buffer holds
// op over the send buffers of ranks 0..i (linear chain).
func (r *Rank) Scan(send, recv *Buffer, count int, dt Datatype, op Op, comm Comm) {
	if r.replayActive() {
		r.replayCollective(CollScan, send, recv, comm)
		return
	}
	args := r.newArgs(Args{Send: send, Recv: recv, Count: int32(count), Dtype: dt, Op: op, Comm: comm})
	call := r.beginCollective(CollScan, args)
	const opName = "MPI_Scan"
	ci := r.commDeref(args.Comm)
	validateCommon(r.id, opName, args, ci, true, true, false)
	me := ci.rankOf[r.id]
	size := len(ci.members)
	seq := r.nextSeq(args.Comm)

	nbytes := int(args.Count) * args.Dtype.Size()
	src := args.Send.ReadAt(opName+" send", 0, nbytes)
	acc, accSlab := r.scratch(nbytes)
	copy(acc, src)
	if me > 0 {
		m := r.recvBlock(opName, args.Comm, me-1, internalTag(seq, 0), nbytes)
		prev, prevSlab := r.scratch(nbytes)
		copy(prev, padTo(m.data, nbytes))
		m.recycle()
		combine(args.Op, args.Dtype, prev, acc, int(args.Count))
		putSlab(accSlab)
		acc, accSlab = prev, prevSlab
	}
	if me < size-1 {
		r.sendRaw(ci, args.Comm, me+1, internalTag(seq, 0), acc)
	}
	args.Recv.WriteAt(opName+" recv", 0, acc)
	putSlab(accSlab)
	r.endCollective(call)
}
