package services

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"runtime"

	"cloud4home/internal/parallel"
)

// The kernels below are the actual computations the services run when a
// payload is materialised. They stand in for OpenCV and x264 with small,
// deterministic algorithms of the same character: face detection scans
// windows for a local-variance signature, recognition matches a probe's
// intensity histogram against a training set, and conversion downsamples
// and delta-encodes the stream. The simulation's *timing* comes from the
// Spec cost model; the kernels keep the data path honest (corruption or
// misrouted objects change answers and fail tests).
//
// Each exported kernel is a thin wrapper over one implementation that
// takes the number of host parts to split its scan over. Parts own
// disjoint, index-addressed ranges and merge in part order, so the output
// is byte-identical for every part count. The count comes from the host
// (hostParts) and is unrelated to the simulated strand count of
// core.ComputePlaneConfig.Workers, which only sizes machine.ExecSharded.

// ErrEmptyInput is returned when a kernel is given no data.
var ErrEmptyInput = errors.New("services: empty input")

// ErrEmptyTrainingSet is returned by face recognition when no training
// images are installed at the processing site.
var ErrEmptyTrainingSet = errors.New("services: empty training set")

// errNoUsableTraining is returned when every training image is empty.
var errNoUsableTraining = errors.New("services: training set had no usable images")

// detectWindow is the sliding-window size used by DetectFaces.
const detectWindow = 64

// splitGrain is the least input worth a host goroutine of its own.
const splitGrain = 64 << 10

// hostParts sizes a kernel's split over the host's cores.
func hostParts(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n/splitGrain))
}

// detectHit reports whether the detectWindow bytes of w have the
// "face-like" local-variance signature. The sums are integers: Σb ≤
// 64·255 = 16 320 and Σb² ≤ 64·255² = 4 161 600 are exact in uint32 and
// in float64 alike, and dividing by 64 only changes the exponent, so mean
// and variance are bit for bit what a float64 accumulation over the
// bytes gives.
func detectHit(w []byte) bool {
	var sum, sumSq uint32
	for i := 0; i < detectWindow; i += 8 {
		b := w[i : i+8 : i+8]
		b0, b1, b2, b3 := uint32(b[0]), uint32(b[1]), uint32(b[2]), uint32(b[3])
		b4, b5, b6, b7 := uint32(b[4]), uint32(b[5]), uint32(b[6]), uint32(b[7])
		sum += b0 + b1 + b2 + b3 + b4 + b5 + b6 + b7
		sumSq += b0*b0 + b1*b1 + b2*b2 + b3*b3 + b4*b4 + b5*b5 + b6*b6 + b7*b7
	}
	mean := float64(sum) / detectWindow
	variance := float64(sumSq)/detectWindow - mean*mean
	// Mid-band variance: neither flat background nor pure noise.
	return variance >= 1000 && variance <= 4200
}

// DetectFaces scans the payload with a sliding window and reports the
// offsets whose local byte variance falls in the "face-like" band. The
// result is deterministic in the input bytes. A payload shorter than one
// window has no scannable window and yields no hits (not an error).
func DetectFaces(data []byte) ([]int, error) {
	return detectFaces(data, hostParts(len(data)))
}

func detectFaces(data []byte, parts int) ([]int, error) {
	if len(data) == 0 {
		return nil, ErrEmptyInput
	}
	nWin := len(data) / detectWindow
	// One verdict bit per window. A part owns whole words of the bitmap,
	// so no two parts write the same word and no window is split.
	marks := make([]uint64, (nWin+63)/64)
	parallel.Run(parts, parts, func(p int) {
		lo, hi := parallel.Range(len(marks), parts, p)
		for wi := lo; wi < hi; wi++ {
			var m uint64
			for k, win := 0, wi*64; k < 64 && win < nWin; k, win = k+1, win+1 {
				if detectHit(data[win*detectWindow : (win+1)*detectWindow]) {
					m |= 1 << k
				}
			}
			marks[wi] = m
		}
	})
	total := 0
	for _, m := range marks {
		total += bits.OnesCount64(m)
	}
	if total == 0 {
		return nil, nil
	}
	hits := make([]int, 0, total)
	for wi, m := range marks {
		for ; m != 0; m &= m - 1 {
			hits = append(hits, (wi*64+bits.TrailingZeros64(m))*detectWindow)
		}
	}
	return hits, nil
}

// Histogram returns the 256-bin byte histogram of data.
func Histogram(data []byte) [256]int {
	return histogram(data, hostParts(len(data)))
}

func histogram(data []byte, parts int) [256]int {
	if parts <= 1 {
		return count(data)
	}
	tabs := make([][256]int, parts)
	parallel.Run(parts, parts, func(p int) {
		lo, hi := parallel.Range(len(data), parts, p)
		tabs[p] = count(data[lo:hi])
	})
	for _, t := range tabs[1:] {
		for b, c := range t {
			tabs[0][b] += c
		}
	}
	return tabs[0]
}

// count is one part's histogram. Consecutive bytes go to four different
// tables, merged at the end: a run of equal bytes (the flat background of
// an image) would otherwise make every increment wait for the previous
// one's store to the same counter.
func count(data []byte) (h [256]int) {
	var t [3][256]int
	for ; len(data) >= 4; data = data[4:] {
		h[data[0]]++
		t[0][data[1]]++
		t[1][data[2]]++
		t[2][data[3]]++
	}
	for _, b := range data {
		h[b]++
	}
	for b := range h {
		h[b] += t[0][b] + t[1][b] + t[2][b]
	}
	return h
}

// RecognizeFace matches the probe against the training set by L1
// histogram distance and returns the index of the best match — "output
// being ID of the best matched image" (§IV). It counts the training set
// afresh on every call; a site that recognises many probes against one
// set builds a TrainingSet once instead.
func RecognizeFace(probe []byte, training [][]byte) (int, error) {
	return recognizeFace(probe, training, hostParts(len(probe)))
}

func recognizeFace(probe []byte, training [][]byte, parts int) (int, error) {
	if len(probe) == 0 {
		return 0, ErrEmptyInput
	}
	return newTrainingSet(training, parts).recognize(probe, parts)
}

// TrainingSet is a face-recognition training set counted once: each
// image's histogram and length, which is all RecognizeFace reads of it.
// It is immutable once built, so any number of goroutines may score
// probes against one set at once.
type TrainingSet struct {
	hists [][256]int
	lens  []int // 0 marks an empty (unusable) image
}

// NewTrainingSet counts the training images. It keeps no reference to
// them.
func NewTrainingSet(training [][]byte) *TrainingSet {
	total := 0
	for _, img := range training {
		total += len(img)
	}
	return newTrainingSet(training, hostParts(total))
}

func newTrainingSet(training [][]byte, parts int) *TrainingSet {
	ts := &TrainingSet{hists: make([][256]int, len(training)), lens: make([]int, len(training))}
	// Each image is counted by exactly one part.
	parallel.Run(parts, len(training), func(i int) {
		ts.hists[i], ts.lens[i] = count(training[i]), len(training[i])
	})
	return ts
}

// Recognize returns the index of the training image closest to the probe
// by L1 distance between length-normalised histograms; ties keep the
// lowest index. It gives what RecognizeFace gives for the images the set
// was built from.
func (ts *TrainingSet) Recognize(probe []byte) (int, error) {
	return ts.recognize(probe, hostParts(len(probe)))
}

func (ts *TrainingSet) recognize(probe []byte, parts int) (int, error) {
	if len(probe) == 0 {
		return 0, ErrEmptyInput
	}
	if len(ts.lens) == 0 {
		return 0, ErrEmptyTrainingSet
	}
	ph := histogram(probe, parts)
	best, bestDist := -1, 0.0
	for i, n := range ts.lens {
		if n == 0 {
			continue
		}
		// Normalise by length so images of different sizes compare fairly.
		th := &ts.hists[i]
		var dist float64
		for b := 0; b < 256; b++ {
			d := float64(ph[b])/float64(len(probe)) - float64(th[b])/float64(n)
			if d < 0 {
				d = -d
			}
			dist += d
		}
		// Strict less-than in index order: ties keep the lowest index.
		if best == -1 || dist < bestDist {
			best, bestDist = i, dist
		}
	}
	if best == -1 {
		return 0, errNoUsableTraining
	}
	return best, nil
}

// ConvertVideo downgrades an ".avi" stream to a smaller ".mp4"-style
// stream: it downsamples by 2 and delta-encodes, prefixing the original
// length so the conversion is checkable.
func ConvertVideo(data []byte) ([]byte, error) {
	return convertVideo(data, hostParts(len(data)))
}

func convertVideo(data []byte, parts int) ([]byte, error) {
	if len(data) == 0 {
		return nil, ErrEmptyInput
	}
	// Output byte j is data[2j] - data[2j-2]: parts read across their
	// input boundary but write disjoint ranges of the exact-length output.
	nOut := (len(data) + 1) / 2
	out := make([]byte, 8+nOut)
	binary.BigEndian.PutUint64(out, uint64(len(data)))
	parallel.Run(parts, parts, func(p int) {
		lo, hi := parallel.Range(nOut, parts, p)
		if lo == hi {
			return // more parts than output bytes
		}
		var prev byte
		if lo > 0 {
			prev = data[2*lo-2]
		}
		j := lo
		// Eight output bytes per step, from the even bytes of sixteen
		// input bytes (while those are in bounds).
		for ; j+8 <= hi && 2*j+16 <= len(data); j += 8 {
			e := evenBytes(binary.LittleEndian.Uint64(data[2*j:])) |
				evenBytes(binary.LittleEndian.Uint64(data[2*j+8:]))<<32
			q := e<<8 | uint64(prev)
			binary.LittleEndian.PutUint64(out[8+j:], subBytes(e, q))
			prev = byte(e >> 56)
		}
		for ; j < hi; j++ {
			cur := data[2*j]
			out[8+j] = cur - prev
			prev = cur
		}
	})
	return out, nil
}

// evenBytes packs bytes 0, 2, 4 and 6 of w (little-endian) into the low
// four bytes of the result, in order.
func evenBytes(w uint64) uint64 {
	w &= 0x00FF00FF00FF00FF
	w = (w | w>>8) & 0x0000FFFF0000FFFF
	return (w | w>>16) & 0x00000000FFFFFFFF
}

// subBytes is x - y in each of the eight bytes on its own, mod 256: the
// high bit of each byte is taken out of the subtraction so that no borrow
// crosses a byte, and put back by the xor.
func subBytes(x, y uint64) uint64 {
	const h = 0x8080808080808080
	return ((x | h) - (y &^ h)) ^ ((x ^ ^y) & h)
}

// ConvertedSourceLen reports the original stream length recorded in a
// converted payload, for integrity checks.
func ConvertedSourceLen(converted []byte) (int64, error) {
	if len(converted) < 8 {
		return 0, fmt.Errorf("services: converted payload too short (%d bytes)", len(converted))
	}
	return int64(binary.BigEndian.Uint64(converted[:8])), nil
}
