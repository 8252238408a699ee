package services

import (
	"math/rand"
	"testing"
)

func benchData(n int) []byte {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, n)
	rng.Read(data)
	return data
}

func BenchmarkDetectFaces256KB(b *testing.B) {
	data := benchData(256 << 10)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DetectFaces(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecognizeFace scores one probe against a training set: "cold"
// counts the set on every call (RecognizeFace), "installed" scores against
// a TrainingSet built once, as a node does between two SetTrainingSet
// calls.
func BenchmarkRecognizeFace(b *testing.B) {
	probe := benchData(64 << 10)
	training := make([][]byte, 16)
	for i := range training {
		training[i] = benchData(64 << 10)
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := RecognizeFace(probe, training); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("installed", func(b *testing.B) {
		ts := NewTrainingSet(training)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ts.Recognize(probe); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkConvertVideo1MB(b *testing.B) {
	data := benchData(1 << 20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ConvertVideo(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHistogram(b *testing.B) {
	data := benchData(64 << 10)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Histogram(data)
	}
}

// BenchmarkKernelsOnWindows runs each kernel on one part over 1 MB of the
// flat, textured and noisy 64-byte windows home-process's images are
// made of; frec scores the probe against a training set installed once.
func BenchmarkKernelsOnWindows(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := windowImage(rng, 1<<20, -1)
	ts := newTrainingSet(testTraining(rng), 1)
	kernels := []struct {
		name string
		run  func() error
	}{
		{"fdet", func() error { _, err := detectFaces(data, 1); return err }},
		{"frec", func() error { _, err := ts.recognize(data, 1); return err }},
		{"x264", func() error { _, err := convertVideo(data, 1); return err }},
	}
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if err := k.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
