namespace demo {

int roll_dice(double weight) {
  std::mt19937 gen;
  int r = rand();
  std::cout << r << std::endl;
  return r;
}

}  // namespace demo
