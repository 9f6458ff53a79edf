// Command brcc is the Mini-C compiler driver: it compiles a source file
// (or a named built-in workload), optionally applies profile-guided
// branch reordering, and can dump the IR, list the detected sequences, or
// run the result on an input file.
//
// Usage:
//
//	brcc [flags] file.mc
//	brcc [flags] -workload sort
//
// Typical sessions:
//
//	brcc -dump prog.mc                     # show optimized IR
//	brcc -seqs prog.mc                     # show reorderable sequences
//	brcc -train train.txt -run in.txt prog.mc
//	                                       # reorder using train.txt, then
//	                                       # execute on in.txt with stats
//	brcc -workload wc -train-builtin -run-builtin -compare
//	                                       # measure baseline vs reordered
package main

import (
	"flag"
	"fmt"
	"os"

	"branchreorder/internal/core"
	"branchreorder/internal/interp"
	"branchreorder/internal/ir"
	"branchreorder/internal/lower"
	"branchreorder/internal/pipeline"
	"branchreorder/internal/workload"
)

func main() {
	var (
		setName      = flag.String("set", "I", "switch heuristic set: I, II, or III (paper Table 2)")
		optimize     = flag.Bool("O", true, "apply conventional optimizations")
		dump         = flag.Bool("dump", false, "print the program's IR")
		seqs         = flag.Bool("seqs", false, "list detected reorderable sequences")
		trainFile    = flag.String("train", "", "training input file; enables branch reordering")
		profileOut   = flag.String("profile-out", "", "first pass: train and write the profile data file (Figure 2)")
		profileIn    = flag.String("profile-in", "", "second pass: reorder using a stored profile data file")
		commonSucc   = flag.Bool("common-succ", false, "also reorder common-successor branch sequences (Section 10 extension)")
		runFile      = flag.String("run", "", "execute the program on this input file")
		wl           = flag.String("workload", "", "compile a built-in workload instead of a file")
		trainBuiltin = flag.Bool("train-builtin", false, "use the workload's built-in training input")
		runBuiltin   = flag.Bool("run-builtin", false, "execute on the workload's built-in test input")
		compare      = flag.Bool("compare", false, "run both baseline and reordered and report both")
	)
	flag.Parse()

	set, err := parseSet(*setName)
	check(err)

	src, train, test, err := loadInputs(*wl, *trainFile, *runFile, *trainBuiltin, *runBuiltin)
	check(err)

	opts := pipeline.Options{Switch: set, Optimize: *optimize, CommonSuccessor: *commonSucc}

	// Explicit two-pass workflow with the profile stored in a file.
	if *profileOut != "" {
		check(runFirstPass(src, opts, train, *profileOut))
		return
	}
	if *profileIn != "" {
		build, err := runSecondPass(src, opts, *profileIn)
		check(err)
		report(build, *seqs, *dump, test, *compare)
		return
	}

	if train == nil {
		// Single-pass compile only.
		front, err := pipeline.Frontend(src, opts)
		check(err)
		if *seqs {
			listSequences(front.Prog)
		}
		if *dump {
			fmt.Print(front.Prog.Dump())
		}
		if test != nil {
			execute("program", front.Prog, test)
		}
		return
	}

	build, err := pipeline.Build(src, train, opts)
	check(err)
	report(build, *seqs, *dump, test, *compare)
}

// report prints the requested views of a finished build and runs it.
func report(build *pipeline.BuildResult, seqs, dump bool, test []byte, compare bool) {
	if seqs {
		for i, s := range build.Sequences {
			fmt.Printf("%v  [%v]\n", s, build.Results[i].Reason)
		}
		for i, s := range build.OrSequences {
			fmt.Printf("%v  [%v]\n", s, build.OrResults[i].Reason)
		}
		fmt.Printf("%d sequences detected, %d reordered\n",
			build.TotalSeqs()+len(build.OrSequences),
			build.ReorderedSeqs()+appliedOr(build))
	}
	if dump {
		fmt.Print(build.Reordered.Dump())
	}
	if test != nil {
		if compare {
			execute("baseline ", build.Baseline, test)
		}
		execute("reordered", build.Reordered, test)
	}
}

func appliedOr(build *pipeline.BuildResult) int {
	n := 0
	for _, r := range build.OrResults {
		if r.Applied {
			n++
		}
	}
	return n
}

// runFirstPass runs stages 1 and 2 — compile, detect, instrument, train —
// and writes the training product as the profile data file.
func runFirstPass(src string, opts pipeline.Options, train []byte, path string) error {
	if train == nil {
		return fmt.Errorf("-profile-out requires -train (or -train-builtin)")
	}
	front, err := pipeline.BuildFrontend(src, opts.Frontend())
	if err != nil {
		return err
	}
	tp, err := pipeline.TrainStage(front, train, opts.Detection())
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pipeline.WriteProfile(f, tp); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote profile for %d sequence(s) to %s\n",
		tp.NumSeqs+tp.NumOrSeqs, path)
	return f.Close()
}

// runSecondPass recompiles and runs stage 3 on a stored profile data
// file. A profile from another source or configuration fails the stage
// check instead of silently reordering nothing.
func runSecondPass(src string, opts pipeline.Options, path string) (*pipeline.BuildResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tp, err := pipeline.ReadProfile(f)
	if err != nil {
		return nil, err
	}
	front, err := pipeline.BuildFrontend(src, opts.Frontend())
	if err != nil {
		return nil, err
	}
	return pipeline.FinalizeStages(front, tp, opts)
}

func parseSet(s string) (lower.HeuristicSet, error) {
	switch s {
	case "I", "1":
		return lower.SetI, nil
	case "II", "2":
		return lower.SetII, nil
	case "III", "3":
		return lower.SetIII, nil
	default:
		return 0, fmt.Errorf("unknown heuristic set %q (want I, II, or III)", s)
	}
}

func loadInputs(wl, trainFile, runFile string, trainBuiltin, runBuiltin bool) (src string, train, test []byte, err error) {
	if wl != "" {
		w, ok := workload.Named(wl)
		if !ok {
			return "", nil, nil, fmt.Errorf("unknown workload %q", wl)
		}
		src = w.Source
		if trainBuiltin {
			train = w.Train()
		}
		if runBuiltin {
			test = w.Test()
		}
	} else {
		args := flag.Args()
		if len(args) != 1 {
			return "", nil, nil, fmt.Errorf("expected exactly one source file (or -workload)")
		}
		data, err := os.ReadFile(args[0])
		if err != nil {
			return "", nil, nil, err
		}
		src = string(data)
	}
	if trainFile != "" {
		train, err = os.ReadFile(trainFile)
		if err != nil {
			return "", nil, nil, err
		}
	}
	if runFile != "" {
		test, err = os.ReadFile(runFile)
		if err != nil {
			return "", nil, nil, err
		}
	}
	return src, train, test, nil
}

func listSequences(prog *ir.Program) {
	clone := ir.CloneProgram(prog)
	found := core.Detect(clone, 0)
	for _, s := range found {
		fmt.Println(s)
	}
	fmt.Printf("%d sequences detected\n", len(found))
}

func execute(label string, prog *ir.Program, input []byte) {
	ret, st, out, err := interp.Exec(interp.EngineFast, prog, nil, input, nil, nil)
	check(err)
	os.Stdout.Write(out)
	fmt.Fprintf(os.Stderr,
		"%s: exit %d, %d insts, %d cond branches (%d taken), %d jumps, %d indirect\n",
		label, ret, st.Insts, st.CondBranches, st.TakenBranches,
		st.Jumps, st.IndirectJumps)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "brcc:", err)
		os.Exit(1)
	}
}
