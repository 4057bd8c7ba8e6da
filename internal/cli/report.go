package cli

import (
	"os/exec"
	"strings"
)

// GitSHA is the short hash of the checked-out commit, stamped into every
// BENCH report so a cell can be traced to the code that produced it;
// "unknown" outside a git checkout.
func GitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// Round3 rounds x to three decimals, the precision of every BENCH report
// number.
func Round3(x float64) float64 {
	return float64(int64(x*1000+0.5)) / 1000
}
