//! "A flexible odor sensor on the package may need to determine if milk
//! has expired" (§3.2) — the paper's motivating classifier use case,
//! running the Decision Tree kernel on a FlexiCore4.
//!
//! Three gas-sensor channels feed the depth-4 decision tree; classes map
//! to freshness grades. The example also shows the field-reprogrammable
//! angle: the same (simulated) chip is reflashed from the thresholding
//! firmware to the classifier firmware at "deployment".
//!
//! ```sh
//! cargo run --release -p flexbench --example milk_sensor
//! ```

use flexasm::Target;
use flexicore::exec::Core;
use flexicore::io::{RecordingOutput, ScriptedInput};
use flexicore::sim::fc4::Fc4Core;
use flexkernels::sources::DecisionTreeSpec;
use flexkernels::Kernel;

fn grade(class: u8) -> &'static str {
    match class {
        0..=5 => "fresh",
        6..=10 => "use soon",
        _ => "expired",
    }
}

fn main() {
    println!("milk freshness classifier on a FlexiCore4 (depth-4 tree, 3 gas channels)\n");

    // the chip ships with the thresholding firmware...
    let mut chip = Fc4Core::new(
        Kernel::Thresholding
            .assemble(Target::fc4())
            .expect("kernels assemble")
            .into_program(),
    );
    // ...and is reflashed in the field with the classifier
    let classifier = Kernel::DecisionTree
        .assemble(Target::fc4())
        .expect("kernels assemble");
    println!(
        "reflashed: {} instructions across {} MMU pages\n",
        classifier.static_instructions(),
        classifier.program().page_count()
    );
    chip.reprogram(classifier.into_program());

    // a day of simulated readings: [ammonia-ish, sulfide-ish, CO2-ish]
    let readings: [[u8; 3]; 5] = [
        [1, 0, 2], // morning, fridge closed
        [2, 1, 3],
        [3, 3, 4], // left on the counter…
        [5, 4, 6],
        [7, 6, 7], // definitely off
    ];

    println!(
        "{:<22} {:>6} {:>8} {:>10}",
        "reading [f0,f1,f2]", "class", "insns", "verdict"
    );
    for reading in readings {
        chip.reset();
        let mut input = ScriptedInput::new(reading.to_vec());
        let mut output = RecordingOutput::new();
        let result = chip
            .run(&mut input, &mut output, 10_000)
            .expect("classifier runs");
        assert!(result.halted());
        // outputs: MMU escape triple, then [class, 0]
        let class = output.values()[3];
        assert_eq!(class, DecisionTreeSpec::classify(reading), "oracle agrees");
        println!(
            "{:<22} {:>6} {:>8} {:>10}",
            format!("{reading:?}"),
            class,
            result.instructions,
            grade(class),
        );
    }

    println!("\nevery inference verified against the Rust oracle; each costs a few dozen");
    println!("instructions — a few milliseconds of a minutes-scale duty cycle (Table 1).");
}
