package measure

import "time"

// The sandbox this benchmark runs in slows down by tens of percent for
// fractions of a second to minutes at a time — a neighbour on the same
// host — and no estimator over raw host time survives that: for an hour
// at a stretch every cell ran 25–30 % below its quiet speed, and even the
// fastest of twelve passes moved by 20 % between runs. What does survive
// is the ratio of a cell's wall to the time a fixed reference kernel
// takes right next to it: both slow down together. calibrate is that
// kernel; every timed cell is bracketed by calibrations, and its wall is
// scaled by calibRef over the mean of the two sides. In a set of runs
// where issue_dense read 900–1020 kinstr/s raw against 1330 on the quiet
// machine, the scaled readings were 1220–1360.
//
// What the ratio cannot see is slowdown that comes and goes inside one
// cell, between the calibrations: one cell's scaled wall still scatters
// by 10–25 % in a bad phase. The metrics get their steadiness from the
// number of cells × passes they are taken over.
//
// The kernel belongs to the benchmark, not to the simulator: a change to
// the simulator cannot move it, so a slower simulator still reads slower.
// It is built to respond to contention the way the simulator's inner
// loops do — scans over small records spread across a megabyte,
// data-dependent branches, a few stores — because a kernel that is only a
// dependent arithmetic chain barely slows down when the simulator does
// (it tracked half the swing).

// calibRef is what calibrate takes on this sandbox when nothing else
// competes for it. It only fixes the scale: scaled walls read as host
// seconds of a quiet machine.
const calibRef = 4200 * time.Microsecond

const (
	calibEvery = 150 * time.Millisecond
	calibMax   = 16

	calibUnits = 1 << 14 // × 64 bytes = 1 MB
	calibScan  = 16
	// Rounds of the two halves of one calibration, and of the one-off
	// warm-up that produces the second half's starting state.
	calibFreshRounds  = 15_000
	calibWarmRounds   = 30_000
	calibWarmUpRounds = 600_000
)

type calibUnit struct {
	state, ready uint32
	pend         [4]uint16
	score, age   int32
	_            [8]uint32
}

var (
	calibState [calibUnits]calibUnit
	calibWarm  []calibUnit // the records after calibWarmUpRounds, built on first use
	calibSink  uint64
)

// calibrate runs the reference kernel once and returns how long it took.
// Every call does the same work, in two halves that respond to
// contention differently — measured against the simulator's own slowdown,
// one under-corrected by about as much as the other over-corrected: a
// scan over freshly reset records, where a third of the slots are skipped
// outright and few are busy, and a scan over a copy of well-used records,
// which takes the long path through most slots and stores more.
func calibrate() time.Duration {
	if calibWarm == nil {
		calibScanRounds(calibState[:], calibWarmUpRounds, 1, false)
		calibWarm = append(calibWarm, calibState[:]...)
	}
	start := time.Now()
	for i := range calibState {
		calibState[i] = calibUnit{state: uint32(i % 3), score: int32(i & 31), age: int32(i)}
	}
	calibScanRounds(calibState[:], calibFreshRounds, 1, true)
	copy(calibState[:], calibWarm)
	calibScanRounds(calibState[:], calibWarmRounds, calibWarmUpRounds+1, false)
	return time.Since(start)
}

// calibScanRounds is the kernel proper. One round looks at calibScan
// neighbouring records and updates the best of them, as a scheduler scans
// its warp slots; highByte picks which half of a pending word is compared
// against the clock, which decides how many slots read as busy.
func calibScanRounds(units []calibUnit, rounds int, now uint32, highByte bool) {
	var acc uint64
	for r := 0; r < rounds; r++ {
		base := (r * calibScan * 37) & (calibUnits - 1) &^ (calibScan - 1)
		best, bestScore := -1, int32(1<<30)
		for i := 0; i < calibScan; i++ {
			u := &units[base+i]
			if u.state == 2 {
				continue
			}
			if u.ready > now {
				acc++
				continue
			}
			busy := false
			for _, p := range u.pend {
				v := uint32(p)
				if highByte {
					v >>= 8
				}
				if p&1 == 1 && v > now&0xff {
					busy = true
					break
				}
			}
			if busy {
				continue
			}
			if sc := u.score + int32(u.pend[0]&7); sc < bestScore || (sc == bestScore && u.age < units[base+best].age) {
				best, bestScore = i, sc
			}
		}
		if best >= 0 {
			u := &units[base+best]
			u.ready = now + uint32(u.pend[1]&15)
			u.pend[r&3] = uint16(now * 2654435761 >> 16)
			u.score = int32(now & 31)
			u.age++
			acc += uint64(bestScore)
		}
		now++
	}
	calibSink += acc
}

// calibrateFor calibrates beside an interval of the given length: one
// run of the kernel per calibEvery of it, at least one and at most
// calibMax, so a single 4 ms reading does not decide the scale of a cell
// that ran for a second while the calibrations stay under a few percent
// of what they bracket. It returns the mean.
func calibrateFor(interval time.Duration) time.Duration {
	n := min(max(int(interval/calibEvery), 1), calibMax)
	var sum time.Duration
	for range n {
		sum += calibrate()
	}
	return sum / time.Duration(n)
}

// A bracket is an interval opened by a calibration. (Not a function that
// takes the interval as a closure: the tree's determinism check resolves
// calls of func() values inside the simulator to every func() in the
// program, and flags one that reads the clock.)
type bracket struct {
	before time.Duration
	start  time.Time
}

func openBracket() bracket { return bracket{calibrateFor(time.Second), time.Now()} }

// quiet closes the interval with a second calibration and returns the
// factor that converts host time measured inside it into time of the
// quiet machine.
func (b bracket) quiet() float64 {
	return scaled(1, b.before, calibrateFor(time.Since(b.start)))
}

// scaled converts a host duration measured between two calibrations into
// seconds of the quiet machine. A zero calibration (a cell that was not
// bracketed) leaves the duration as measured.
func scaled(seconds float64, before, after time.Duration) float64 {
	if before <= 0 || after <= 0 {
		return seconds
	}
	return seconds * float64(2*calibRef) / float64(before+after)
}
