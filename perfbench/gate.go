package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
)

// digest hashes outputs in order, length-prefixed so that moving a byte
// from one part to the next changes the hash.
func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// goldenBody extracts the RenderCampaign output from a committed
// paper_run*.txt: everything from the "campaign: N run(s)" line on, with
// the generated header (comment lines, banner, spec-file count) removed.
func goldenBody(committed string) (string, error) {
	i := strings.Index(committed, "\ncampaign: ")
	if i < 0 {
		return "", fmt.Errorf("no \"campaign: \" line")
	}
	return dropWallTime(committed[i+1:]), nil
}

// dropWallTime removes the CLI's "total wall time" line, the only
// host-dependent line of a campaign's stdout.
func dropWallTime(s string) string {
	lines := strings.SplitAfter(s, "\n")
	kept := lines[:0]
	for _, l := range lines {
		if !strings.HasPrefix(l, "total wall time:") {
			kept = append(kept, l)
		}
	}
	return strings.Join(kept, "")
}

// compareGolden checks a render against a committed table byte for
// byte. The CLI prints the render followed by "\ntotal wall time: …\n";
// with the wall-time line dropped, one blank line remains after it, so
// that is what the committed file holds.
func compareGolden(render, committed string) error {
	want, err := goldenBody(committed)
	if err != nil {
		return err
	}
	got := render + "\n"
	if got == want {
		return nil
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			return fmt.Errorf("render differs at body line %d: got %q, want %q", i+1, g, w)
		}
	}
	return fmt.Errorf("render differs from the committed table")
}
