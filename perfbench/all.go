package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// allOrder is the order -workload all runs the workloads in.
var allOrder = []string{"inject-accel", "inject-service", "beam-live"}

// runAll runs every workload in a child process of its own (so each
// reports its own peak RSS), echoes their output, requires
// inject-service's digests to equal inject-accel's for every campaign
// seed both ran, and prints one table of every metric with its unit,
// then a combined result line.
func runAll(opts options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if opts.trace {
		trace = "1"
	}
	combined := result{Correct: true, Metrics: make(map[string]metric)}
	digests := make(map[string]map[string]string) // workload -> seed -> sha256
	for _, name := range allOrder {
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(opts.seed, 10),
			"--seconds", strconv.FormatFloat(opts.seconds, 'g', -1, 64), "--trace", trace,
			"--faults", strconv.Itoa(FaultsPerComponent), "--strikes", strconv.Itoa(StrikesPerComponent))
		cmd.Stderr = os.Stderr
		var out bytes.Buffer
		cmd.Stdout = &out
		if err := cmd.Run(); err != nil {
			os.Stdout.Write(out.Bytes())
			return fmt.Errorf("%s: %w", name, err)
		}
		os.Stdout.Write(out.Bytes())
		digests[name] = make(map[string]string)
		var last string
		sc := bufio.NewScanner(&out)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			last = sc.Text()
			// "campaign <kind> seed=<n> sha256=<hex> <status>"
			f := strings.Fields(last)
			if len(f) >= 4 && f[0] == "campaign" && f[1] == name {
				digests[name][strings.TrimPrefix(f[2], "seed=")] = strings.TrimPrefix(f[3], "sha256=")
			}
		}
		var r result
		if err := json.Unmarshal([]byte(last), &r); err != nil {
			return fmt.Errorf("%s: result line: %w", name, err)
		}
		combined.Correct = combined.Correct && r.Correct
		combined.Attempted += r.Attempted
		combined.Failed += r.Failed
		for k, m := range r.Metrics {
			combined.Metrics[name+"."+k] = m
		}
	}
	shared := 0
	for seed, d := range digests["inject-service"] {
		if a, ok := digests["inject-accel"][seed]; ok {
			shared++
			if a != d {
				combined.Correct = false
				combined.Failed++
				fmt.Printf("CHECK FAILED: seed %s: inject-service digest %s, inject-accel %s\n", seed, d, a)
			}
		}
	}
	fmt.Printf("inject-service vs inject-accel: %d shared campaign seeds compared\n", shared)
	names := make([]string, 0, len(combined.Metrics))
	for k := range combined.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-48s %16.6g %s\n", k, combined.Metrics[k].Value, combined.Metrics[k].Unit)
	}
	line, err := json.Marshal(combined)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
