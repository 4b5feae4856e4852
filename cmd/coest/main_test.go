package main

import (
	"strings"
	"testing"
)

func TestCheckOverrides(t *testing.T) {
	for _, tc := range []struct {
		packets, dma, perm int
		err                string // "" = accepted; else the rejected flag
	}{
		{0, 0, 0, ""}, // 0 means "no override"
		{6, 16, 5, ""},
		{1, 1, 1, ""},
		{-3, 0, 0, "-packets"},
		{0, -4, 0, "-dma"},
		{-3, -4, 0, "-packets"},
		{0, 0, -1, "-perm"},
		{0, 0, 6, "-perm"},
	} {
		err := checkOverrides(tc.packets, tc.dma, tc.perm)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("packets %d dma %d perm %d: unexpected error %v", tc.packets, tc.dma, tc.perm, err)
		case tc.err != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.err+" ")):
			t.Errorf("packets %d dma %d perm %d: error %v, want one naming %s",
				tc.packets, tc.dma, tc.perm, err, tc.err)
		}
	}
}
