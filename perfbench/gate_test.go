package main

import (
	"os"
	"strings"
	"testing"
)

// render reconstructs what RenderCampaign printed for a committed table:
// its body without the blank line the CLI's wall-time line leaves.
func renderOf(t *testing.T, committed string) string {
	t.Helper()
	body, err := goldenBody(committed)
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSuffix(body, "\n")
}

func TestGoldenGateFailsOnOneByteMutation(t *testing.T) {
	for _, name := range []string{"paper_run.txt", "paper_run_adversary.txt", "paper_run_transport.txt"} {
		b, err := os.ReadFile("../" + name)
		if err != nil {
			t.Fatal(err)
		}
		committed := string(b)
		render := renderOf(t, committed)
		if err := compareGolden(render, committed); err != nil {
			t.Fatalf("%s: identical render rejected: %v", name, err)
		}
		start := strings.Index(committed, "\ncampaign: ") + 1
		// Every 97th byte of the body, and its last byte.
		positions := []int{len(committed) - 1}
		for i := start; i < len(committed); i += 97 {
			positions = append(positions, i)
		}
		for _, i := range positions {
			mutated := []byte(committed)
			mutated[i] ^= 0x01
			if err := compareGolden(render, string(mutated)); err == nil {
				t.Fatalf("%s: mutation of byte %d passed the gate", name, i)
			}
		}
		// The generated header is not compared.
		header := "# a different header\n" + committed[strings.Index(committed, "\n")+1:]
		if err := compareGolden(render, header); err != nil {
			t.Errorf("%s: header change rejected: %v", name, err)
		}
	}
}

func TestDropWallTime(t *testing.T) {
	got := dropWallTime("a\n\ntotal wall time: 7.1s\nb\n")
	if got != "a\n\nb\n" {
		t.Errorf("dropWallTime = %q", got)
	}
}

func TestDigestSeparatesParts(t *testing.T) {
	if digest("ab", "c") == digest("a", "bc") {
		t.Error("digest ignores part boundaries")
	}
	if digest("x") != digest("x") {
		t.Error("digest is not deterministic")
	}
}
