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
